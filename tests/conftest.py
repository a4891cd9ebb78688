import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from eventscan.geometry import PinholeModel, unit
from eventscan.scene import Material, Plane, ScanSchedule, SceneObject

REPO = Path(__file__).resolve().parent.parent
SCENES = REPO / "scenes"
CONFIGS = REPO / "configs"


def aimed_projector(center, look_at, f, steps=801):
    """Projector model at ``center`` looking at ``look_at``, pixelation = steps."""
    center = np.asarray(center, dtype=float)
    z = unit(np.asarray(look_at, dtype=float) - center)
    x = unit(np.cross([0.0, 1.0, 0.0], z))
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    return PinholeModel(
        fx=f, fy=f, cx=steps / 2, cy=steps / 2, width=steps, height=steps,
        rotation=R, translation=-R @ center,
    )


def small_rig(steps=801, cam_px=400, cam_f=1200.0, proj_f=1000.0):
    camera = PinholeModel(fx=cam_f, fy=cam_f, cx=cam_px / 2, cy=cam_px / 2, width=cam_px, height=cam_px)
    projector = aimed_projector([100.0, 0.0, 0.0], [0.0, 0.0, 600.0], proj_f * steps / 801, steps)
    return camera, projector


def wall_object(z=600.0, extent=240.0, label="wall"):
    return SceneObject(Plane([0.0, 0.0, z], [0.0, 0.0, -1.0], [extent, extent]), Material("diffuse", 0.9), label)


def tilted_mirror(center=(60.0, 0.0, 500.0), target=(-40.0, 70.0, 600.0), extent=16.0, kind="specular"):
    center = np.asarray(center, dtype=float)
    normal = unit(unit(np.asarray(target, dtype=float) - center) - unit(center))
    material = Material("specular", 0.0, 1.0) if kind == "specular" else Material("shiny", 0.5, 0.5)
    return SceneObject(Plane(center, normal, [extent, extent]), material, "mirror"), normal


@pytest.fixture(scope="session")
def mirror_scan():
    """Shared dual scan of the wall + tilted mirror scene (801 steps)."""
    from eventscan.simulate import simulate_scan

    camera, projector = small_rig()
    mirror, normal = tilted_mirror()
    schedule = ScanSchedule(801, 120000, 5000)
    objects = [wall_object(), mirror]
    result = simulate_scan(objects, camera, projector, schedule)
    return {
        "camera": camera,
        "projector": projector,
        "schedule": schedule,
        "objects": objects,
        "mirror_normal": normal,
        "result": result,
    }


@pytest.fixture(scope="session")
def plane_scan():
    """Shared dual scan of a pure diffuse plane (801 steps)."""
    from eventscan.simulate import simulate_scan

    camera, projector = small_rig(cam_px=320)
    schedule = ScanSchedule(801, 120000, 5000)
    objects = [wall_object()]
    result = simulate_scan(objects, camera, projector, schedule)
    return {
        "camera": camera,
        "projector": projector,
        "schedule": schedule,
        "objects": objects,
        "result": result,
    }


def assert_same_run_dirs(a, b, skip=()):
    """Run directories ``a`` and ``b`` hold the same file names and the same
    bytes in each file, leaving out the names in ``skip``."""
    names = sorted(p.name for p in a.iterdir() if p.name not in skip)
    assert names == sorted(p.name for p in b.iterdir() if p.name not in skip)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _sha256s(run_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "not a file" for p in run_dir.iterdir()}


class RunStore:
    """Whole-pipeline runs shared by the session, one per effective config.

    ``store(cfg)`` returns ``(RunReport, run directory)``, running the
    pipeline on the first call for a config. Every test that asks for the same
    config gets the same directory, so a test that changes files copies the
    run first. Each file's sha256 is recorded when the run is made;
    ``changed()`` names the files that differ from it now (file modes do not
    stop a process running as root, so they cannot keep a run read-only).
    """

    def __init__(self, root: Path):
        self.root = root
        self.runs: dict = {}

    def __call__(self, cfg):
        from eventscan import pipeline  # run_pipeline looked up per call, so a test can substitute it

        # the resolved paths say which files the run reads, the written ones
        # what its manifest records
        key = json.dumps({**cfg.effective(), "written": cfg.written}, sort_keys=True)
        if key not in self.runs:
            out = self.root / f"run{len(self.runs)}"
            report = pipeline.run_pipeline(cfg, out)
            self.runs[key] = (report, out, _sha256s(out))
        report, out, _ = self.runs[key]
        return copy.deepcopy(report), out

    def changed(self) -> list:
        changed = []
        for _, out, made in self.runs.values():
            now = _sha256s(out)
            changed += [str(out / name) for name in sorted(made.keys() | now.keys()) if made.get(name) != now.get(name)]
        return changed


@pytest.fixture(scope="session")
def stored_run(tmp_path_factory):
    """The session's ``RunStore``; fails the session at teardown if a stored run changed."""
    store = RunStore(tmp_path_factory.mktemp("stored_runs"))
    yield store
    changed = store.changed()
    assert not changed, "stored runs changed during the session (copy a run before changing it): " + ", ".join(changed)
