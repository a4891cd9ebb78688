"""End-to-end runs: simulate -> decode -> separate -> reconstruct -> evaluate.

A run is driven by one declarative config file plus a scene file; every
effective parameter is echoed into ``manifest.json`` so the run is
self-describing, and all artifact writers use stable formatting, so the same
config and seed produce byte-identical outputs.

``STORE`` is the run directory: one entry per artifact with its files and
its save/load pair. Each ``stage_*`` takes its inputs in memory, writes what
it makes through the store and returns it. ``_drive`` runs stages in chain
order and owns the mode logic. ``run_pipeline`` drives all six and hands
results on in memory; ``run_stage`` drives one on inputs read back through
the store. Both paths therefore run the same code on the same inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, decode, formats, metrics
from .deflectometry import bind_screen, iterative_shape
from .events import EventStream, GroundTruth
from .geometry import fundamental_from_models
from .scene import NoiseModel, ScanSchedule, SceneFile, load_calibration_bundle, load_scene, save_calibration_bundle
from .separate import DIRECT, INDIRECT, ClassifiedSet, epipolar_classify, resolve_mixed_pixels
from .simulate import check_pixelation, simulate_scan
from .triangulate import DiffuseCloud, build_virtual_screen, triangulate_direct

MANIFEST = "manifest.json"
FAILED_MARKER = "FAILED"

STAGES = ("simulate", "decode", "separate", "triangulate", "deflect", "metrics")


class ConfigError(ValueError):
    """Invalid or unknown configuration; nothing has been written."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _check(default, rule: str, ok: Callable):
    """A config key whose value must pass ``ok``; ``rule`` says what passes."""
    return field(default=default, metadata={"rule": rule, "ok": ok})


def _one_of(default, *names):
    return _check(default, " | ".join(names), lambda v: v in names)


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation; an int passes as a float, a bool only as a bool."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (float in allowed and isinstance(value, int))


@dataclass
class PipelineConfig:
    """One run's parameters. Each field is a config key: its name, type,
    default and allowed values are the whole config schema. Every float must
    be finite. A scene override left at ``None`` keeps the scene file's value."""

    scene: str
    calibration: str = "from-scene"
    mode: str = _one_of("mixed", "mixed", "diffuse-only")
    seed: int = _check(0, ">= 0", lambda v: v >= 0)
    init_depth: str | float = _check("auto", "a number > 0 or 'auto'", lambda v: v == "auto" if isinstance(v, str) else v > 0)
    fit_diffuse: str = _one_of("none", "none", "plane", "sphere")
    fit_specular: str = _one_of("none", "none", "plane", "sphere")
    higher_bounces: bool = False
    sweep_us: int | None = _check(None, "> 0", lambda v: v > 0)
    recovery_us: int | None = _check(None, ">= 0", lambda v: v >= 0)
    jitter_us: float | None = _check(None, ">= 0", lambda v: v >= 0)
    spurious_rate: float | None = _check(None, ">= 0", lambda v: v >= 0)
    drop_probability: float | None = _check(None, "in [0, 1]", lambda v: 0 <= v <= 1)
    # not a config key: ``scene`` and ``calibration`` as the config file
    # wrote them, before load_config resolved them; the manifest records these
    written: dict = field(default_factory=dict, compare=False, metadata={"internal": True})

    def __post_init__(self):
        hints = typing.get_type_hints(PipelineConfig)
        for f in fields(self):
            value, hint = getattr(self, f.name), hints[f.name]
            if not _has_type(value, hint):
                raise ConfigError(f"{f.name} must be of type {getattr(hint, '__name__', hint)}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if value is not None and "ok" in f.metadata and not f.metadata["ok"](value):
                raise ConfigError(f"{f.name} must be {f.metadata['rule']}, got {value!r}")

    def effective(self) -> dict:
        return {k: v for k, v in asdict(self).items() if not _internal(k)}


def _internal(name: str) -> bool:
    return PipelineConfig.__dataclass_fields__[name].metadata.get("internal", False)


def load_config(path) -> PipelineConfig:
    """Parse a run config against the fields of ``PipelineConfig``.

    An unknown key, a missing ``scene`` or a value of the wrong type or range
    is a ConfigError. Relative ``scene`` and ``calibration`` paths resolve
    against the config file's directory; ``written`` keeps them as written.
    """
    sections = formats.read_sections(path)
    if len(sections) != 1 or sections[0].name != "run":
        raise ConfigError(f"{path}: config must contain exactly one [run] section")
    keys = {f.name for f in fields(PipelineConfig) if not _internal(f.name)}
    values: dict = {}
    for key, raw in sections[0].pairs.items():
        if key not in keys:
            raise ConfigError(f"{path}: unknown config key '{key}'")
        values[key] = formats.parse_scalar(raw)
    if "scene" not in values:
        raise ConfigError(f"{path}: config is missing 'scene'")
    base = Path(path).resolve().parent
    written = {}
    for key in ("scene", "calibration"):
        value = values.get(key)
        if isinstance(value, str) and value != "from-scene" and not Path(value).is_absolute():
            written[key] = value
            values[key] = str(base / value)
    return PipelineConfig(**values, written=written)


def _apply_overrides(schedule: ScanSchedule, noise: NoiseModel, cfg: PipelineConfig):
    schedule = replace(
        schedule,
        sweep_duration_us=cfg.sweep_us if cfg.sweep_us is not None else schedule.sweep_duration_us,
        recovery_us=cfg.recovery_us if cfg.recovery_us is not None else schedule.recovery_us,
    )
    noise = NoiseModel(
        timestamp_jitter_sigma_us=cfg.jitter_us if cfg.jitter_us is not None else noise.timestamp_jitter_sigma_us,
        spurious_rate=cfg.spurious_rate if cfg.spurious_rate is not None else noise.spurious_rate,
        drop_probability=cfg.drop_probability if cfg.drop_probability is not None else noise.drop_probability,
        seed=cfg.seed,
    )
    return schedule, noise


def _read_input(load: Callable, path):
    try:
        return load(path)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc) if str(exc).startswith(str(path)) else f"{path}: {exc}") from exc


def load_run_scene(cfg: PipelineConfig) -> SceneFile:
    """The scene as the run simulates it: the rig from ``calibration`` and the
    config's schedule and noise overrides applied.

    A scene or calibration file that cannot be read, or that holds a value
    its constructor rejects (a non-finite number, say), is a ConfigError
    naming it. So is a schedule that ``check_pixelation`` rejects.
    """
    scene = _read_input(load_scene, cfg.scene)
    camera, projector = (scene.camera, scene.projector) if cfg.calibration == "from-scene" else _read_input(load_calibration_bundle, cfg.calibration)
    schedule, noise = _apply_overrides(scene.schedule, scene.noise, cfg)
    try:
        check_pixelation(projector, schedule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return SceneFile(camera, projector, schedule, noise, scene.objects)


# --- the artifact store ------------------------------------------------------


class ScanMeta(NamedTuple):
    """What ``scan.txt`` records about the simulated scan."""

    schedule: ScanSchedule
    mode: str
    n_sweeps: int
    span_us: int
    counts: dict
    warnings: list


_SCHEDULE_KEYS = ("steps_per_sweep", "sweep_duration_us", "recovery_us", "scan_start_us")


def _save_scan(paths, scan: ScanMeta) -> None:
    sec = formats.Section("scan")
    sec.set("mode", scan.mode)
    for key in _SCHEDULE_KEYS:
        sec.set(key, getattr(scan.schedule, key))
    sec.set("n_sweeps", scan.n_sweeps)
    sec.set("scan_span_us", scan.span_us)
    csec = formats.Section("counts")
    for key in sorted(scan.counts):
        csec.set(key, scan.counts[key])
    wsec = formats.Section("warnings")
    for i, w in enumerate(scan.warnings):
        wsec.set(f"w{i}", w)
    formats.write_sections(paths[0], [sec, csec, wsec])


def _load_scan(paths) -> ScanMeta:
    by_name = {s.name: s for s in formats.read_sections(paths[0])}
    sec = by_name["scan"]
    schedule = ScanSchedule(*(sec.get_int(key) for key in _SCHEDULE_KEYS))
    counts = {key: int(value) for key, value in by_name["counts"].pairs.items()}
    warnings = list(by_name["warnings"].pairs.values())
    return ScanMeta(schedule, sec.get_str("mode"), sec.get_int("n_sweeps"), sec.get_int("scan_span_us"), counts, warnings)


def _save_provenance(paths, provenance) -> None:
    for path, array in zip(paths, provenance):
        np.save(path, array)


SPECULAR_COLUMNS = (formats.XYZ,)
METRICS_COLUMNS = ("name", "value")


def _save_specular(paths, specular) -> None:
    points, meta = specular
    formats.write_ply(paths[0], SPECULAR_COLUMNS, [points], comment="eventscan specular surface (mm)")
    formats.write_sections(paths[1], [formats.Section("deflect", {k: formats.fmt(v) for k, v in meta.items()})])


def _load_specular(paths):
    (points,) = formats.read_ply(paths[0], SPECULAR_COLUMNS)
    (meta,) = formats.read_sections(paths[1])
    return points, {key: formats.parse_scalar(value) for key, value in meta.pairs.items()}


def _save_metrics(paths, report: dict) -> None:
    rows = sorted(report.items())
    lines = [f"{k} = {formats.fmt(v)}" for k, v in rows]
    paths[0].write_text("\n".join(["# eventscan metrics report"] + lines) + "\n", encoding="utf-8")
    formats.write_table(paths[1], METRICS_COLUMNS, [[k for k, _ in rows], [formats.fmt(v) for _, v in rows]])


class Artifact(NamedTuple):
    stage: str  # the stage that makes it
    files: tuple  # file names in the run directory
    save: Callable  # save(paths, value), one path per file
    load: Callable | None  # load(paths) -> value; None when no stage reads it back


# Every file a run directory holds apart from the manifest and the FAILED marker.
STORE = {
    "events": Artifact("simulate", ("events.txt",), lambda p, ev: ev.save_text(p[0]), lambda p: EventStream.load_text(p[0])),
    # one row per light path, then one row per event
    "truth": Artifact(
        "simulate", ("ground_truth.txt", "ground_truth_events.txt"), lambda p, gt: gt.save_text(*p), lambda p: GroundTruth.load_text(*p)
    ),
    "rig": Artifact("simulate", ("rig.calib",), lambda p, rig: save_calibration_bundle(p[0], *rig), lambda p: load_calibration_bundle(p[0])),
    "scan": Artifact("simulate", ("scan.txt",), _save_scan, _load_scan),
    "correspondences": Artifact(
        "decode", ("correspondences.txt",), lambda p, c: c.save_text(p[0]), lambda p: decode.CorrespondenceSet.load_text(p[0])
    ),
    # (event_ids, event_offsets): each correspondence's supporting events in CSR form
    "provenance": Artifact("decode", ("provenance_ids.npy", "provenance_offsets.npy"), _save_provenance, lambda p: tuple(map(np.load, p))),
    "classified": Artifact("separate", ("classified.txt",), lambda p, c: c.save_text(p[0]), lambda p: ClassifiedSet.load_text(p[0])),
    "cloud": Artifact("triangulate", ("diffuse.ply",), lambda p, c: c.save_ply(p[0]), lambda p: DiffuseCloud.load_ply(p[0])),
    "screen": Artifact("triangulate", ("screen.txt",), lambda p, s: s.save_text(p[0]), None),
    # (points, deflectometry summary)
    "specular": Artifact("deflect", ("specular.ply", "deflect.txt"), _save_specular, _load_specular),
    "normals": Artifact("deflect", ("normals.pfm", "normal_mask.pfm"), lambda p, nm: nm.save_pfm(*p), None),
    "residuals": Artifact("deflect", ("residuals.txt",), lambda p, est: est.save_residuals(p[0]), None),
    "metrics": Artifact("metrics", ("metrics.txt", "metrics.tsv"), _save_metrics, None),
}


def _paths(out: Path, key: str) -> list:
    return [out / name for name in STORE[key].files]


def _keep(out: Path, made: dict) -> dict:
    """Write each made artifact through the store and hand them on."""
    for key, value in made.items():
        STORE[key].save(_paths(out, key), value)
    return made


# --- stages --------------------------------------------------------------------


def stage_simulate(cfg: PipelineConfig, out: Path, scene: SceneFile) -> dict:
    """Simulate the scan of ``scene``, as ``load_run_scene`` returns it."""
    rig = (scene.camera, scene.projector)
    mode = "single" if cfg.mode == "diffuse-only" else "dual"
    result = simulate_scan(scene.objects, *rig, scene.schedule, scene.noise, mode=mode, generate_higher_bounces=cfg.higher_bounces)
    n_sweeps = 1 if mode == "single" else 2
    return _keep(out, {
        "events": result.events,
        "truth": result.ground_truth,
        "rig": rig,
        "scan": ScanMeta(scene.schedule, cfg.mode, n_sweeps, result.scan_span_us, result.counts, result.warnings),
    })


def stage_decode(out: Path, events: EventStream, scan: ScanMeta, rig) -> dict:
    assignments = decode.assign_sweeps(events, scan.schedule, scan.schedule.scan_start_us, n_sweeps=scan.n_sweeps)
    if scan.n_sweeps == 1:
        corr = decode.intersect_single_sweep(assignments, fundamental_from_models(*rig))
    else:
        corr = decode.intersect_sweeps(assignments)
    return _keep(out, {"correspondences": corr, "provenance": (corr.event_ids, corr.event_offsets)})


def stage_separate(out: Path, corr: decode.CorrespondenceSet, rig) -> dict:
    return _keep(out, {"classified": resolve_mixed_pixels(epipolar_classify(corr, fundamental_from_models(*rig)))})


def stage_triangulate(out: Path, classified: ClassifiedSet, rig, with_screen: bool = True) -> dict:
    cloud = triangulate_direct(classified, *rig)
    made = {"cloud": cloud}
    if with_screen:
        made["screen"] = build_virtual_screen(cloud)
    return _keep(out, made)


def stage_deflect(cfg: PipelineConfig, out: Path, classified: ClassifiedSet, screen, cloud: DiffuseCloud, rig) -> dict:
    camera = rig[0]
    binding = bind_screen(classified, screen)
    init_depth = None if cfg.init_depth == "auto" else float(cfg.init_depth)
    estimate, normal_map = iterative_shape(binding, camera, init_depth=init_depth, cloud=cloud)
    meta = {
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "rejected_fraction": estimate.rejected_fraction,
        "curl_rms": estimate.curl_rms,
        "bound": len(binding),
        "uncovered": binding.uncovered,
    }
    return _keep(out, {"specular": (estimate.points(camera), meta), "normals": normal_map, "residuals": estimate})


def stage_metrics(cfg: PipelineConfig, out: Path, cloud: DiffuseCloud, classified, truth: GroundTruth | None, specular=None) -> dict:
    report: dict = {}
    report["diffuse_points"] = len(cloud)
    if cfg.fit_diffuse != "none" and len(cloud) >= 4:
        fit = metrics.fit_plane(cloud.position) if cfg.fit_diffuse == "plane" else metrics.fit_sphere(cloud.position)
        report["diffuse_fit"] = cfg.fit_diffuse
        report["diffuse_rmse_mm"] = fit.rmse
        report["diffuse_precision_mm"] = metrics.precision(cloud.position, fit)
        if fit.radius is not None:
            report["diffuse_radius_mm"] = fit.radius
    if specular is not None and cfg.fit_specular != "none" and len(specular[0]) >= 4:
        pts, meta = specular
        fit = metrics.fit_plane(pts) if cfg.fit_specular == "plane" else metrics.fit_sphere(pts)
        report["specular_fit"] = cfg.fit_specular
        report["specular_rmse_mm"] = fit.rmse
        report["specular_precision_mm"] = metrics.precision(pts, fit)
        if fit.radius is not None:
            report["specular_radius_mm"] = fit.radius
        report["specular_rejected_fraction"] = meta["rejected_fraction"]
        report["specular_iterations"] = meta["iterations"]
    if truth is not None and classified is not None and len(classified):
        score = metrics.classification_score(classified, truth)
        report["class_precision_direct"] = score.precision_direct
        report["class_recall_direct"] = score.recall_direct
        report["class_precision_indirect"] = score.precision_indirect
        report["class_recall_indirect"] = score.recall_indirect
    return _keep(out, {"metrics": report})


# --- the driver ----------------------------------------------------------------


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _drive(cfg: PipelineConfig, out: Path, stages, have: dict, source: Path | None = None) -> list:
    """Run ``stages`` in chain order; returns (stage, summary, ran) per stage.

    A stage's inputs come from ``have``, which collects what every stage
    makes, and otherwise are read from ``out`` through the store. With a
    ``source`` directory, the artifacts of the stages before the first one
    are first copied byte for byte from there into ``out``.

    The mode logic lives here alone: diffuse-only skips separate and deflect
    and triangulates every correspondence as direct; deflect runs only when
    there are indirect correspondences; metrics gets what the run made. A
    failure leaves a FAILED marker naming the stage and raises StageError.
    When the chain starts with simulate, its scene is read before ``out`` is
    created, so a ConfigError there leaves nothing behind.
    """

    def need(*keys):
        for key in keys:
            if key not in have:
                have[key] = STORE[key].load(_paths(out, key))
        return [have[key] for key in keys]

    mixed = cfg.mode == "mixed"
    failed = out / FAILED_MARKER
    done = []
    stage = stages[0]
    scene = load_run_scene(cfg) if stage == "simulate" else None
    try:
        out.mkdir(parents=True, exist_ok=True)
        failed.unlink(missing_ok=True)
        if source is not None:
            earlier = STAGES[: STAGES.index(stage)]
            for art in STORE.values():
                for name in art.files if art.stage in earlier else ():
                    # a table or PLY file comes with its twin
                    for copied in (name, formats.twin_path(name)):
                        if (source / copied).is_file():
                            shutil.copyfile(source / copied, out / copied)
        for stage in stages:
            ran = True
            if stage == "simulate":
                have.update(stage_simulate(cfg, out, scene))
                summary = f"{len(have['events'])} events"
            elif stage == "decode":
                have.update(stage_decode(out, *need("events", "scan", "rig")))
                summary = f"{len(have['correspondences'])} correspondences"
                if not len(have["correspondences"]):
                    summary += "\nwarning: empty correspondence table"
            elif stage == "separate" and mixed:
                have.update(stage_separate(out, *need("correspondences", "rig")))
                summary = f"{len(have['classified'])} classified"
            elif stage == "triangulate":
                if not mixed:
                    (corr,) = need("correspondences")
                    have["classified"] = ClassifiedSet(corr, np.zeros(len(corr), dtype=np.int8), np.zeros(len(corr)))
                have.update(stage_triangulate(out, *need("classified", "rig"), with_screen=mixed))
                summary = f"{len(have['cloud'])} points"
            elif stage == "deflect" and mixed and (need("classified")[0].label == INDIRECT).any():
                if "screen" not in have:
                    have["screen"] = build_virtual_screen(*need("cloud"))
                have.update(stage_deflect(cfg, out, *need("classified", "screen", "cloud", "rig")))
                meta = have["specular"][1]
                state = "converged" if meta["converged"] else "not converged"
                summary = f"{meta['bound']} bound, {meta['iterations']} iterations, {state}"
            elif stage == "metrics":
                classified = truth = specular = None
                if mixed:
                    classified, provenance, truth = need("classified", "provenance", "truth")
                    classified.base.event_ids, classified.base.event_offsets = provenance
                    if (classified.label == INDIRECT).any():
                        (specular,) = need("specular")
                have.update(stage_metrics(cfg, out, *need("cloud"), classified, truth, specular))
                summary = "\n".join(f"{k} = {v}" for k, v in sorted(have["metrics"].items()))
            else:
                ran = False
                summary = "skipped: " + ("diffuse-only mode" if not mixed else "no indirect correspondences")
            done.append((stage, summary, ran))
            # glibc keeps the pages a stage freed while any chunk above them is
            # in use, so the next stage's peak would stack on them by an amount
            # that shifts with heap layout; hand them back
            if trim := _malloc_trim():
                trim(0)
    except Exception as exc:
        out.mkdir(parents=True, exist_ok=True)
        failed.write_text(f"stage = {stage}\nerror = {exc}\n", encoding="utf-8")
        raise StageError(stage, exc) from exc
    return done


@dataclass
class RunReport:
    out_dir: Path
    stages: list
    numbers: dict
    manifest: dict


def run_pipeline(cfg: PipelineConfig, out_dir) -> RunReport:
    """Run all stages in memory; on failure a FAILED marker names the broken stage."""
    out = Path(out_dir)
    have: dict = {}
    stages_done = [stage for stage, _, ran in _drive(cfg, out, STAGES, have) if ran]
    numbers = {
        "events": len(have["events"]),
        "scan_span_us": have["scan"].span_us,
        "correspondences": len(have["correspondences"]),
        "diffuse_points": len(have["cloud"]),
    }
    if cfg.mode == "mixed":
        numbers["direct"] = int((have["classified"].label == DIRECT).sum())
    if "specular" in have:
        numbers["bound"] = have["specular"][1]["bound"]
        numbers["uncovered"] = have["specular"][1]["uncovered"]
    numbers.update(have["metrics"])
    # paths as the config wrote them, so the manifest does not depend on where
    # the checkout lives, and the hash of each input file the run read
    inputs = {key: getattr(cfg, key) for key in ("scene", "calibration") if getattr(cfg, key) != "from-scene"}
    manifest = {
        "tool": "eventscan",
        "version": __version__,
        "numpy": np.__version__,
        "config": {**cfg.effective(), **cfg.written},
        "input_sha256": {key: hashlib.sha256(Path(path).read_bytes()).hexdigest() for key, path in inputs.items()},
        "stages": stages_done,
        "numbers": {k: (float(v) if isinstance(v, (np.floating, float)) else int(v) if isinstance(v, (np.integer, int)) else v) for k, v in numbers.items()},
        "artifacts": sorted(p.name for p in out.iterdir() if p.is_file() and p.name != MANIFEST),
    }
    (out / MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return RunReport(out, stages_done, numbers, manifest)


def run_stage(cfg: PipelineConfig, stage: str, out_dir, input_dir=None) -> str:
    """Run one stage on inputs read through the store from ``out_dir``; returns its summary.

    With an ``input_dir`` other than ``out_dir``, the artifacts of the
    earlier stages are first copied from there, so a chain of stages through
    fresh directories carries every artifact forward.
    """
    out = Path(out_dir)
    same = input_dir is None or Path(input_dir).resolve() == out.resolve()
    ((_, summary, _),) = _drive(cfg, out, [stage], {}, None if same else Path(input_dir))
    return summary
