"""End-to-end runs: simulate -> decode -> separate -> reconstruct -> evaluate.

A run is driven by one declarative config file plus a scene file; every
effective parameter is echoed into ``manifest.json`` so the run is
self-describing, and all artifact writers use stable formatting, so the same
config and seed produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, decode, formats, metrics
from .deflectometry import bind_screen, iterative_shape
from .events import EventStream, GroundTruth
from .geometry import fundamental_from_models
from .scene import NoiseModel, ScanSchedule, load_calibration_bundle, load_scene, save_calibration_bundle
from .separate import DIRECT, ClassifiedSet, epipolar_classify, resolve_mixed_pixels
from .simulate import simulate_scan
from .triangulate import DiffuseCloud, build_virtual_screen, triangulate_direct

EVENTS = "events.txt"
EVENTS_BIN = "events.bin"
GROUND_TRUTH = "ground_truth.txt"
RIG = "rig.calib"
SCAN = "scan.txt"
CORRESPONDENCES = "correspondences.txt"
PROVENANCE_IDS = "provenance_ids.npy"
PROVENANCE_OFFSETS = "provenance_offsets.npy"
CLASSIFIED = "classified.txt"
DIFFUSE_PLY = "diffuse.ply"
SCREEN = "screen.txt"
SPECULAR_PLY = "specular.ply"
NORMALS_PFM = "normals.pfm"
NORMALS_MASK_PFM = "normal_mask.pfm"
RESIDUALS = "residuals.txt"
DEFLECT_META = "deflect.txt"
METRICS = "metrics.txt"
METRICS_TSV = "metrics.tsv"
MANIFEST = "manifest.json"
FAILED_MARKER = "FAILED"


class ConfigError(ValueError):
    """Invalid or unknown configuration; nothing has been written."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


_DEFAULTS = {
    "scene": None,  # required
    "calibration": "from-scene",
    "mode": "mixed",  # mixed | diffuse-only
    "seed": 0,
    "tau_px": 2.0,
    "gap_max_mm": 1.0,
    "init_depth": "auto",
    "deflect_max_iter": 50,
    "deflect_tol_mm": 0.01,
    "polarity_policy": "positive",
    "fit_diffuse": "none",  # none | plane | sphere
    "fit_specular": "none",
    "binary_events": False,
    "higher_bounces": False,
    # optional scene overrides; None = keep the scene file's values
    "steps": None,
    "sweep_us": None,
    "recovery_us": None,
    "jitter_us": None,
    "spurious_rate": None,
    "drop_probability": None,
}


@dataclass
class PipelineConfig:
    scene: str
    calibration: str = "from-scene"
    mode: str = "mixed"
    seed: int = 0
    tau_px: float = 2.0
    gap_max_mm: float = 1.0
    init_depth: str | float = "auto"
    deflect_max_iter: int = 50
    deflect_tol_mm: float = 0.01
    polarity_policy: str = "positive"
    fit_diffuse: str = "none"
    fit_specular: str = "none"
    binary_events: bool = False
    higher_bounces: bool = False
    steps: int | None = None
    sweep_us: int | None = None
    recovery_us: int | None = None
    jitter_us: float | None = None
    spurious_rate: float | None = None
    drop_probability: float | None = None

    def __post_init__(self):
        if self.mode not in ("mixed", "diffuse-only"):
            raise ConfigError(f"mode must be 'mixed' or 'diffuse-only', got {self.mode!r}")
        if self.fit_diffuse not in ("none", "plane", "sphere") or self.fit_specular not in ("none", "plane", "sphere"):
            raise ConfigError("fit_diffuse / fit_specular must be none, plane or sphere")
        if self.polarity_policy not in ("positive", "negative", "both"):
            raise ConfigError(f"unknown polarity_policy {self.polarity_policy!r}")
        if self.tau_px <= 0 or self.gap_max_mm <= 0:
            raise ConfigError("tau_px and gap_max_mm must be positive")

    def effective(self) -> dict:
        out = {}
        for key in _DEFAULTS:
            out[key] = getattr(self, key)
        return out


def load_config(path) -> PipelineConfig:
    """Parse a run config; any unknown key is a startup error.

    Relative ``scene`` and ``calibration`` paths resolve against the config
    file's directory.
    """
    sections = formats.read_sections(path)
    if len(sections) != 1 or sections[0].name != "run":
        raise ConfigError(f"{path}: config must contain exactly one [run] section")
    sec = sections[0]
    values: dict = {}
    for key, raw in sec.pairs.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}: unknown config key '{key}'")
        values[key] = formats.parse_scalar(raw)
    if "scene" not in values:
        raise ConfigError(f"{path}: config is missing 'scene'")
    if "init_depth" in values and not isinstance(values["init_depth"], (int, float)) and values["init_depth"] != "auto":
        raise ConfigError(f"{path}: init_depth must be a number or 'auto'")
    base = Path(path).resolve().parent
    for key in ("scene", "calibration"):
        value = values.get(key)
        if isinstance(value, str) and value != "from-scene" and not Path(value).is_absolute():
            values[key] = str(base / value)
    return PipelineConfig(**values)


def _apply_overrides(schedule: ScanSchedule, noise: NoiseModel, cfg: PipelineConfig):
    if cfg.steps is not None or cfg.sweep_us is not None or cfg.recovery_us is not None:
        schedule = ScanSchedule(
            steps_per_sweep=cfg.steps if cfg.steps is not None else schedule.steps_per_sweep,
            sweep_duration_us=cfg.sweep_us if cfg.sweep_us is not None else schedule.sweep_duration_us,
            recovery_us=cfg.recovery_us if cfg.recovery_us is not None else schedule.recovery_us,
            scan_start_us=schedule.scan_start_us,
        )
    noise = NoiseModel(
        timestamp_jitter_sigma_us=cfg.jitter_us if cfg.jitter_us is not None else noise.timestamp_jitter_sigma_us,
        spurious_rate=cfg.spurious_rate if cfg.spurious_rate is not None else noise.spurious_rate,
        drop_probability=cfg.drop_probability if cfg.drop_probability is not None else noise.drop_probability,
        seed=cfg.seed,
    )
    return schedule, noise


def _write_scan_meta(path, schedule: ScanSchedule, mode: str, n_sweeps: int, scan_span_us: int, counts: dict, warnings: list):
    sec = formats.Section("scan")
    sec.set("mode", mode)
    sec.set("steps_per_sweep", schedule.steps_per_sweep)
    sec.set("sweep_duration_us", schedule.sweep_duration_us)
    sec.set("recovery_us", schedule.recovery_us)
    sec.set("scan_start_us", schedule.scan_start_us)
    sec.set("n_sweeps", n_sweeps)
    sec.set("scan_span_us", scan_span_us)
    csec = formats.Section("counts")
    for key in sorted(counts):
        csec.set(key, counts[key])
    wsec = formats.Section("warnings")
    for i, w in enumerate(warnings):
        wsec.set(f"w{i}", w)
    formats.write_sections(path, [sec, csec, wsec])


def _read_scan_meta(path):
    by_name = {s.name: s for s in formats.read_sections(path)}
    sec = by_name["scan"]
    schedule = ScanSchedule(
        steps_per_sweep=sec.get_int("steps_per_sweep"),
        sweep_duration_us=sec.get_int("sweep_duration_us"),
        recovery_us=sec.get_int("recovery_us"),
        scan_start_us=sec.get_int("scan_start_us"),
    )
    return schedule, sec.get_str("mode"), sec.get_int("n_sweeps")


@dataclass
class RunReport:
    out_dir: Path
    stages: list
    numbers: dict
    manifest: dict


def _metric_rows(report: dict) -> list:
    rows = []
    for key in sorted(report):
        rows.append((key, report[key]))
    return rows


def stage_simulate(cfg: PipelineConfig, out: Path):
    scene = load_scene(cfg.scene)
    schedule, noise = _apply_overrides(scene.schedule, scene.noise, cfg)
    if cfg.calibration == "from-scene":
        camera, projector = scene.camera, scene.projector
    else:
        camera, projector = load_calibration_bundle(cfg.calibration)
    mode = "single" if cfg.mode == "diffuse-only" else "dual"
    result = simulate_scan(
        scene.objects,
        camera,
        projector,
        schedule,
        noise,
        mode=mode,
        generate_higher_bounces=cfg.higher_bounces,
    )
    result.events.save_text(out / EVENTS)
    if cfg.binary_events:
        result.events.save_binary(out / EVENTS_BIN)
    result.ground_truth.save_text(out / GROUND_TRUTH)
    save_calibration_bundle(out / RIG, camera, projector)
    n_sweeps = 1 if mode == "single" else 2
    _write_scan_meta(out / SCAN, schedule, cfg.mode, n_sweeps, result.scan_span_us, result.counts, result.warnings)
    return result, camera, projector, schedule, scene


def stage_decode(cfg: PipelineConfig, out: Path, events=None, schedule=None, n_sweeps=None, camera=None, projector=None):
    if events is None:
        events = EventStream.load_text(out / EVENTS)
        schedule, _, n_sweeps = _read_scan_meta(out / SCAN)
        camera, projector = load_calibration_bundle(out / RIG)
    assignments = decode.assign_sweeps(events, schedule, schedule.scan_start_us, n_sweeps=n_sweeps)
    if n_sweeps == 1:
        F = fundamental_from_models(camera, projector)
        corr = decode.intersect_single_sweep(assignments, F, polarity_policy=cfg.polarity_policy)
    else:
        corr = decode.intersect_sweeps(assignments, polarity_policy=cfg.polarity_policy)
    corr.save_text(out / CORRESPONDENCES)
    np.save(out / PROVENANCE_IDS, corr.event_ids)
    np.save(out / PROVENANCE_OFFSETS, corr.event_offsets)
    return corr, assignments


def _load_correspondences(out: Path) -> decode.CorrespondenceSet:
    corr = decode.CorrespondenceSet.load_text(out / CORRESPONDENCES)
    ids = out / PROVENANCE_IDS
    offsets = out / PROVENANCE_OFFSETS
    if ids.exists() and offsets.exists():
        corr.event_ids = np.load(ids)
        corr.event_offsets = np.load(offsets)
    return corr


def stage_separate(cfg: PipelineConfig, out: Path, corr=None, camera=None, projector=None):
    if corr is None:
        corr = _load_correspondences(out)
        camera, projector = load_calibration_bundle(out / RIG)
    F = fundamental_from_models(camera, projector)
    classified = resolve_mixed_pixels(epipolar_classify(corr, F, tau=cfg.tau_px))
    classified.save_text(out / CLASSIFIED)
    return classified


def stage_triangulate(cfg: PipelineConfig, out: Path, classified=None, camera=None, projector=None, write_screen=True):
    if classified is None:
        classified = ClassifiedSet.load_text(out / CLASSIFIED)
        camera, projector = load_calibration_bundle(out / RIG)
    cloud = triangulate_direct(classified, camera, projector, gap_max_mm=cfg.gap_max_mm)
    cloud.save_ply(out / DIFFUSE_PLY)
    screen = build_virtual_screen(cloud)
    if write_screen:
        screen.save_text(out / SCREEN)
    return cloud, screen


def stage_deflect(cfg: PipelineConfig, out: Path, classified=None, screen=None, cloud=None, camera=None):
    if classified is None:
        classified = ClassifiedSet.load_text(out / CLASSIFIED)
        camera, _ = load_calibration_bundle(out / RIG)
        cloud = DiffuseCloud.load_ply(out / DIFFUSE_PLY)
        screen = build_virtual_screen(cloud)
    binding = bind_screen(classified, screen)
    init = None if cfg.init_depth == "auto" else float(cfg.init_depth)
    estimate, normal_map = iterative_shape(
        binding,
        camera,
        init_depth=init,
        max_iter=cfg.deflect_max_iter,
        tol_mm=cfg.deflect_tol_mm,
        cloud=cloud,
    )
    formats.write_ply(out / SPECULAR_PLY, estimate.points(camera), comment="eventscan specular surface (mm)")
    normal_map.save_pfm(out / NORMALS_PFM, out / NORMALS_MASK_PFM)
    estimate.save_residuals(out / RESIDUALS)
    meta = formats.Section("deflect")
    meta.set("iterations", estimate.iterations)
    meta.set("converged", estimate.converged)
    meta.set("rejected_fraction", estimate.rejected_fraction)
    meta.set("curl_rms", estimate.curl_rms)
    meta.set("bound", len(binding))
    meta.set("uncovered", binding.uncovered)
    formats.write_sections(out / DEFLECT_META, [meta])
    return binding, estimate, normal_map


def stage_metrics(cfg: PipelineConfig, out: Path, cloud: DiffuseCloud, classified, truth: GroundTruth | None, camera, specular_points=None, deflect_meta: dict | None = None):
    report: dict = {}
    report["diffuse_points"] = len(cloud)
    if cfg.fit_diffuse != "none" and len(cloud) >= 4:
        fit = metrics.fit_plane(cloud.position) if cfg.fit_diffuse == "plane" else metrics.fit_sphere(cloud.position)
        report["diffuse_fit"] = cfg.fit_diffuse
        report["diffuse_rmse_mm"] = fit.rmse
        report["diffuse_precision_mm"] = metrics.precision(cloud.position, fit)
        if fit.radius is not None:
            report["diffuse_radius_mm"] = fit.radius
    if specular_points is not None and cfg.fit_specular != "none" and len(specular_points) >= 4:
        pts = specular_points
        fit = metrics.fit_plane(pts) if cfg.fit_specular == "plane" else metrics.fit_sphere(pts)
        report["specular_fit"] = cfg.fit_specular
        report["specular_rmse_mm"] = fit.rmse
        report["specular_precision_mm"] = metrics.precision(pts, fit)
        if fit.radius is not None:
            report["specular_radius_mm"] = fit.radius
        if deflect_meta:
            report["specular_rejected_fraction"] = deflect_meta["rejected_fraction"]
            report["specular_iterations"] = deflect_meta["iterations"]
    has_provenance = classified is not None and len(classified.base.event_offsets) == len(classified) + 1
    if truth is not None and classified is not None and len(classified) and has_provenance:
        score = metrics.classification_score(classified, truth)
        report["class_precision_direct"] = score.precision_direct
        report["class_recall_direct"] = score.recall_direct
        report["class_precision_indirect"] = score.precision_indirect
        report["class_recall_indirect"] = score.recall_indirect
    rows = _metric_rows(report)
    lines = [f"{k} = {formats.fmt(v)}" for k, v in rows]
    (out / METRICS).write_text("\n".join(["# eventscan metrics report"] + lines) + "\n")
    formats.write_table(
        out / METRICS_TSV,
        ["name", "value"],
        [np.array([k for k, _ in rows]), np.array([formats.fmt(v) for _, v in rows])],
    )
    return report


def run_pipeline(cfg: PipelineConfig, out_dir) -> RunReport:
    """Run all stages; on failure a FAILED marker names the broken stage."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = out / FAILED_MARKER
    if failed.exists():
        failed.unlink()
    stages_done: list[str] = []
    numbers: dict = {}
    stage = "simulate"
    try:
        result, camera, projector, schedule, scene = stage_simulate(cfg, out)
        stages_done.append(stage)
        n_sweeps = 1 if cfg.mode == "diffuse-only" else 2
        numbers["events"] = len(result.events)
        numbers["scan_span_us"] = result.scan_span_us

        stage = "decode"
        corr, assignments = stage_decode(cfg, out, result.events, schedule, n_sweeps, camera, projector)
        stages_done.append(stage)
        numbers["correspondences"] = len(corr)

        estimate = None
        specular_points = None
        deflect_meta = None
        if cfg.mode == "mixed":
            stage = "separate"
            classified = stage_separate(cfg, out, corr, camera, projector)
            stages_done.append(stage)
            numbers["direct"] = int((classified.label == DIRECT).sum())

            stage = "triangulate"
            cloud, screen = stage_triangulate(cfg, out, classified, camera, projector)
            stages_done.append(stage)
            numbers["diffuse_points"] = len(cloud)

            if len(classified.where(1)):
                stage = "deflect"
                binding, estimate, normal_map = stage_deflect(cfg, out, classified, screen, cloud, camera)
                stages_done.append(stage)
                numbers["bound"] = len(binding)
                numbers["uncovered"] = binding.uncovered
                specular_points = estimate.points(camera)
                deflect_meta = {"rejected_fraction": estimate.rejected_fraction, "iterations": estimate.iterations}
        else:
            # diffuse-only: single sweep, no separation/deflectometry
            classified = ClassifiedSet(
                corr,
                np.zeros(len(corr), dtype=np.int8),
                np.zeros(len(corr)),
            )
            stage = "triangulate"
            cloud, _ = stage_triangulate(cfg, out, classified, camera, projector, write_screen=False)
            stages_done.append(stage)
            numbers["diffuse_points"] = len(cloud)

        stage = "metrics"
        truth = result.ground_truth
        report = stage_metrics(
            cfg,
            out,
            cloud,
            classified if cfg.mode == "mixed" else None,
            truth,
            camera,
            specular_points=specular_points,
            deflect_meta=deflect_meta,
        )
        stages_done.append(stage)
        numbers.update(report)
    except Exception as exc:
        failed.write_text(f"stage = {stage}\nerror = {exc}\n")
        raise StageError(stage, exc) from exc

    manifest = {
        "tool": "eventscan",
        "version": __version__,
        "numpy": np.__version__,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.effective().items()},
        "stages": stages_done,
        "numbers": {k: (float(v) if isinstance(v, (np.floating, float)) else int(v) if isinstance(v, (np.integer, int)) else v) for k, v in numbers.items()},
        "artifacts": sorted(p.name for p in out.iterdir() if p.is_file() and p.name != MANIFEST),
    }
    (out / MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return RunReport(out, stages_done, numbers, manifest)
