"""The three benchmark workloads and their output checks.

Each workload calls eventscan through module attributes (``simulate.simulate_scan``,
``cli.main``, ...), never through names bound at import, so the traced run's
wrappers see every call. ``run`` returns whatever ``check`` needs; ``check``
returns (counts, errors) and runs after timing and tracing have stopped.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CONFIG_MIRROR = "configs/plane_mirror.cfg"
CONFIG_SPHERE = "configs/specular_sphere.cfg"
SCENE_MIRROR = "scenes/plane_mirror.scene"
SUBCOMMANDS = ("simulate", "decode", "separate", "triangulate", "deflect", "metrics")

# Run-directory artifacts README lists (events.bin is optional there).
# manifest.json is written by ``eventscan run`` only; the per-stage
# subcommands never write it, so the staged workload does not expect it.
ARTIFACTS = (
    "events.txt", "ground_truth.txt", "rig.calib", "scan.txt", "deflect.txt", "correspondences.txt",
    "classified.txt", "diffuse.ply", "specular.ply", "screen.txt", "normals.pfm", "normal_mask.pfm",
    "residuals.txt", "metrics.txt", "metrics.tsv", "manifest.json",
)
STAGED_ARTIFACTS = tuple(a for a in ARTIFACTS if a != "manifest.json")

# Event-camera scale for hd_memory. fx stays near 2000: much above ~2100 the
# wall region the mirror reflects leaves the field of view and most mirror
# cells go uncovered, a property of the scene rather than of the code.
HD_CAMERA = dict(fx=2000.0, fy=2000.0, cx=640.0, cy=360.0, width=1280, height=720)
HD_SHINY_CENTER = (-60.0, 0.0, 500.0)
HD_SHINY_EXTENT = 16.0

MIN_RECALL_INDIRECT = 0.95
MIN_PRECISION_DIRECT = 0.999
MAX_RMSE_MM = 0.01
MAX_NORMAL_ERR_DEG = 0.1
SPHERE_RADIUS_MM = 25.4
SPHERE_RADIUS_TOL = 0.005


def _seeded_config(root: Path, rel: str, seed: int):
    from eventscan import pipeline

    values = pipeline.load_config(root / rel).effective()
    values["seed"] = seed
    return pipeline.PipelineConfig(**values)


def _normal_error_deg(points: np.ndarray, normal) -> float:
    from eventscan.metrics import fit_plane

    fit = fit_plane(points)
    return float(np.degrees(np.arccos(min(1.0, abs(float(fit.normal @ np.asarray(normal)))))))


def _object(scene_file, label):
    return next(o for o in scene_file.objects if o.label == label)


def _table_rows(path: Path) -> int:
    """Rows of a write_table file, counted without parsing."""
    data = path.read_bytes()
    head = 0
    for line in data[:4096].split(b"\n"):
        if not line.startswith(b"#"):
            break
        head += 1
    return data.count(b"\n") - head


def _class_counts(path: Path) -> dict:
    data = path.read_bytes()
    return {name: data.count(f" {name} ".encode()) for name in ("direct", "indirect", "rejected")}


def _ply_vertices(path: Path) -> int:
    with open(path, "rb") as f:
        for line in f:
            if line.startswith(b"element vertex"):
                return int(line.split()[-1])
            if line.strip() == b"end_header":
                break
    raise ValueError(f"{path.name}: no vertex count")


def _metrics_tsv(path: Path) -> dict:
    from eventscan.formats import parse_scalar, read_table

    _, (names, values) = read_table(path, ["name", "value"])
    return {k: parse_scalar(v) for k, v in zip(names, values)}


def _missing(out: Path, names) -> list:
    return [f"artifact {n} missing" for n in names if not (out / n).is_file()]


def _common_errors(score: dict) -> list:
    errors = []
    if not score.get("class_recall_indirect", 0.0) >= MIN_RECALL_INDIRECT:
        errors.append(f"indirect recall {score.get('class_recall_indirect')} < {MIN_RECALL_INDIRECT}")
    if not score.get("class_precision_direct", 0.0) >= MIN_PRECISION_DIRECT:
        errors.append(f"direct precision {score.get('class_precision_direct')} < {MIN_PRECISION_DIRECT}")
    return errors


# --- mirror_run: `eventscan run` on plane_mirror.cfg -------------------------

def run_mirror(root: Path, seed: int, out: Path, stage):
    from eventscan import pipeline

    cfg = _seeded_config(root, CONFIG_MIRROR, seed)
    return pipeline.run_pipeline(cfg, out)


def check_mirror(root: Path, report, out: Path):
    from eventscan.formats import read_ply
    from eventscan.scene import load_scene

    n = report.numbers
    classes = _class_counts(out / "classified.txt")
    counts = {
        "events": n["events"], "correspondences": n["correspondences"], "direct": n["direct"],
        "indirect": classes["indirect"], "rejected": classes["rejected"],
        "diffuse_points": n["diffuse_points"], "bound": n["bound"],
    }
    errors = _missing(out, ARTIFACTS) + _common_errors(n)
    if classes["direct"] != n["direct"]:
        errors.append(f"classified.txt has {classes['direct']} direct rows, run reported {n['direct']}")
    if not n.get("diffuse_rmse_mm", math.inf) < MAX_RMSE_MM:
        errors.append(f"diffuse_rmse_mm {n.get('diffuse_rmse_mm')} >= {MAX_RMSE_MM}")
    if not errors:
        points, _ = read_ply(out / "specular.ply")
        true_normal = _object(load_scene(root / SCENE_MIRROR), "mirror").shape.normal
        err = _normal_error_deg(points, true_normal)
        if not err < MAX_NORMAL_ERR_DEG:
            errors.append(f"specular normal error {err:.4f} deg >= {MAX_NORMAL_ERR_DEG}")
    return counts, errors


# --- sphere_staged: one `eventscan <stage>` call per stage -------------------

def run_sphere(root: Path, seed: int, out: Path, stage):
    from eventscan import cli

    codes = {}
    args = ["--config", str(root / CONFIG_SPHERE), "--out", str(out), "--seed", str(seed)]
    for sub in SUBCOMMANDS:
        with stage(sub):
            codes[sub] = cli.main([sub] + args)
    return codes


def check_sphere(root: Path, codes: dict, out: Path):
    from eventscan import formats

    errors = [f"subcommand {s} exited {c}" for s, c in codes.items() if c != 0]
    errors += _missing(out, STAGED_ARTIFACTS)
    if errors:
        return {}, errors
    classes = _class_counts(out / "classified.txt")
    deflect = {s.name: s for s in formats.read_sections(out / "deflect.txt")}["deflect"]
    counts = {
        "events": _table_rows(out / "events.txt"),
        "correspondences": _table_rows(out / "correspondences.txt"),
        "direct": classes["direct"], "indirect": classes["indirect"], "rejected": classes["rejected"],
        "diffuse_points": _ply_vertices(out / "diffuse.ply"),
        "bound": deflect.get_int("bound"),
    }
    report = _metrics_tsv(out / "metrics.tsv")
    errors += _common_errors(report)
    radius = report.get("specular_radius_mm", math.nan)
    if not abs(radius - SPHERE_RADIUS_MM) <= SPHERE_RADIUS_TOL * SPHERE_RADIUS_MM:
        errors.append(f"specular_radius_mm {radius} not within {SPHERE_RADIUS_TOL:.1%} of {SPHERE_RADIUS_MM}")
    return counts, errors


# --- hd_memory: the in-memory chain at event-camera scale --------------------

def hd_scene(root: Path, seed: int):
    """plane_mirror.scene with a 1280x720 camera and a shiny patch mirroring the mirror across x."""
    from eventscan.geometry import PinholeModel
    from eventscan.scene import Material, NoiseModel, Plane, SceneObject, load_scene

    base = load_scene(root / SCENE_MIRROR)
    mirror = _object(base, "mirror").shape
    shiny_normal = mirror.normal * np.array([-1.0, 1.0, 1.0])
    shiny = SceneObject(
        Plane(HD_SHINY_CENTER, shiny_normal, [HD_SHINY_EXTENT, HD_SHINY_EXTENT]),
        Material("shiny", 0.5, 0.5),
        "shiny",
    )
    noise = NoiseModel(timestamp_jitter_sigma_us=0.0, seed=seed)
    return base, PinholeModel(**HD_CAMERA), base.objects + [shiny], noise


def run_hd(root: Path, seed: int, out: Path, stage):
    from eventscan import decode, deflectometry, geometry, metrics, separate, simulate, triangulate

    base, camera, objects, noise = hd_scene(root, seed)
    projector, schedule = base.projector, base.schedule
    with stage("simulate"):
        result = simulate.simulate_scan(objects, camera, projector, schedule, noise)
    with stage("decode"):
        assignments = decode.assign_sweeps(result.events, schedule, schedule.scan_start_us, 2)
        corr = decode.intersect_sweeps(assignments)
    with stage("separate"):
        F = geometry.fundamental_from_models(camera, projector)
        classified = separate.resolve_mixed_pixels(separate.epipolar_classify(corr, F, tau=2.0))
    with stage("triangulate"):
        cloud = triangulate.triangulate_direct(classified, camera, projector, 1.0)
        screen = triangulate.build_virtual_screen(cloud)
    with stage("deflect"):
        binding = deflectometry.bind_screen(classified, screen)
        estimate, _ = deflectometry.iterative_shape(binding, camera, cloud=cloud)
    with stage("metrics"):
        score = metrics.classification_score(classified, result.ground_truth)
    return dict(result=result, corr=corr, classified=classified, cloud=cloud, binding=binding,
                estimate=estimate, score=score, camera=camera, objects=objects)


def check_hd(root: Path, r: dict, out: Path):
    from eventscan.separate import DIRECT, INDIRECT, REJECTED

    label = r["classified"].label
    counts = {
        "events": len(r["result"].events), "correspondences": len(r["corr"]),
        "direct": int((label == DIRECT).sum()), "indirect": int((label == INDIRECT).sum()),
        "rejected": int((label == REJECTED).sum()),
        "diffuse_points": len(r["cloud"]), "bound": len(r["binding"]),
    }
    score = r["score"]
    errors = _common_errors({
        "class_recall_indirect": score.recall_indirect, "class_precision_direct": score.precision_direct,
    })
    # the mirror's cells are the reconstructed points nearest its centre
    points = r["estimate"].points(r["camera"])
    planes = [o.shape for o in r["objects"] if o.material.mirrors]
    mirror = next(o.shape for o in r["objects"] if o.label == "mirror")
    dist = np.stack([np.linalg.norm(points - p.point, axis=1) for p in planes])
    mine = dist.argmin(axis=0) == planes.index(mirror)
    err = _normal_error_deg(points[mine], mirror.normal) if mine.sum() >= 3 else math.inf
    if not err < MAX_NORMAL_ERR_DEG:
        errors.append(f"mirror normal error {err:.4f} deg >= {MAX_NORMAL_ERR_DEG}")
    return counts, errors


WORKLOADS = {
    "mirror_run": (run_mirror, check_mirror),
    "sphere_staged": (run_sphere, check_sphere),
    "hd_memory": (run_hd, check_hd),
}
