"""Declarative scene description: objects, materials, rig, scan schedule, noise.

A scene file is a sectioned key-value document (see formats.py). It carries
everything one simulation run needs: the two device models, the sweep
schedule, the noise model and the object list. Every float in it must be
finite; the constructors below reject NaN and infinities.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .events import check_label
from .formats import FormatError, Section
from .geometry import PinholeModel, require_finite, unit

DIFFUSE = "diffuse"
SPECULAR = "specular"
SHINY = "shiny"


@dataclass(frozen=True)
class Material:
    kind: str
    diffuse_albedo: float = 0.0
    specular_strength: float = 0.0

    def __post_init__(self):
        if self.kind not in (DIFFUSE, SPECULAR, SHINY):
            raise ValueError(f"unknown material kind {self.kind!r}")
        require_finite(albedo=self.diffuse_albedo, strength=self.specular_strength)
        if not (0.0 <= self.diffuse_albedo <= 1.0 and 0.0 <= self.specular_strength <= 1.0):
            raise ValueError("albedo and strength must lie in [0, 1]")
        if self.kind == DIFFUSE and self.specular_strength != 0.0:
            raise ValueError("diffuse material must have specular_strength = 0")
        if self.kind == SPECULAR and self.diffuse_albedo != 0.0:
            raise ValueError("specular material must have diffuse_albedo = 0")
        if self.kind == SHINY and not (self.diffuse_albedo > 0 and self.specular_strength > 0):
            raise ValueError("shiny material needs both components > 0")

    @property
    def scatters(self) -> bool:
        """True when the surface produces a diffuse (direct) return."""
        return self.kind in (DIFFUSE, SHINY)

    @property
    def mirrors(self) -> bool:
        """True when the surface produces a specular reflection."""
        return self.kind in (SPECULAR, SHINY)


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic in-plane axes: pair the normal with the world axis it is
    # least aligned with.
    axes = np.eye(3)
    seed = axes[int(np.argmin(np.abs(normal)))]
    u = unit(np.cross(normal, seed))
    v = np.cross(normal, u)
    return u, v


@dataclass(frozen=True, eq=False)
class Plane:
    """Finite rectangle: center point, unit normal, half-extents along u, v."""

    point: np.ndarray
    normal: np.ndarray
    extent: np.ndarray  # (half_u, half_v) in mm

    def __post_init__(self):
        require_finite(point=self.point, normal=self.normal, extent=self.extent)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64))
        object.__setattr__(self, "normal", unit(np.asarray(self.normal, dtype=np.float64)))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=np.float64))
        if np.any(self.extent <= 0):
            raise ValueError("plane extent must be positive")

    @property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        return _plane_basis(self.normal)


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        require_finite(center=self.center, radius=self.radius)
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True, eq=False)
class SceneObject:
    shape: object
    material: Material
    label: str


@dataclass(frozen=True)
class ScanSchedule:
    """Sweep timing; maps timestamps to projector sweep positions.

    A dual scan is a vertical-line sweep over projector columns followed by a
    horizontal-line sweep over rows, each ``sweep_duration_us`` long with a
    ``recovery_us`` pause after it: total scan time 2 x (sweep + recovery).
    """

    steps_per_sweep: int = 801
    sweep_duration_us: int = 30000
    recovery_us: int = 5000
    scan_start_us: int = 0

    def __post_init__(self):
        if self.steps_per_sweep < 2:
            raise ValueError("steps_per_sweep must be >= 2")
        if self.sweep_duration_us <= 0 or self.recovery_us < 0:
            raise ValueError("durations must be positive (recovery may be zero)")

    @property
    def step_us(self) -> float:
        return self.sweep_duration_us / self.steps_per_sweep

    def sweep_start(self, sweep: int) -> int:
        return self.scan_start_us + sweep * (self.sweep_duration_us + self.recovery_us)

    def total_us(self, sweeps: int = 2) -> int:
        return sweeps * (self.sweep_duration_us + self.recovery_us)

    def step_time(self, sweep: int, step) -> np.ndarray:
        """Schedule time of a projector step (the projector-side timestamp)."""
        t = self.sweep_start(sweep) + np.asarray(step, dtype=np.float64) * self.step_us
        return np.floor(t + 0.5).astype(np.int64)

    def crossing_time(self, sweep: int, position) -> np.ndarray:
        """Time at which the sweeping line crosses a continuous position."""
        t = self.sweep_start(sweep) + np.asarray(position, dtype=np.float64) * self.step_us
        return np.floor(t + 0.5).astype(np.int64)


@dataclass(frozen=True)
class NoiseModel:
    """Event corruption applied after tracing; defaults are conservative."""

    timestamp_jitter_sigma_us: float = 50.0
    spurious_rate: float = 0.0  # events per microsecond per megapixel
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(
            timestamp_jitter_sigma_us=self.timestamp_jitter_sigma_us,
            spurious_rate=self.spurious_rate,
            drop_probability=self.drop_probability,
        )
        if self.timestamp_jitter_sigma_us < 0 or self.spurious_rate < 0:
            raise ValueError("noise rates must be >= 0")
        if not (0.0 <= self.drop_probability <= 1.0):
            raise ValueError("drop_probability must lie in [0, 1]")

    @property
    def silent(self) -> bool:
        return self.timestamp_jitter_sigma_us == 0 and self.spurious_rate == 0 and self.drop_probability == 0


@dataclass
class SceneFile:
    """Everything a simulation run consumes, as read from one scene file."""

    camera: PinholeModel
    projector: PinholeModel
    schedule: ScanSchedule
    noise: NoiseModel
    objects: list[SceneObject] = field(default_factory=list)


def _model_section(name: str, m: PinholeModel) -> Section:
    sec = Section(name)
    sec.set("width", m.width)
    sec.set("height", m.height)
    sec.set("fx", m.fx)
    sec.set("fy", m.fy)
    sec.set("cx", m.cx)
    sec.set("cy", m.cy)
    sec.set("skew", m.skew)
    sec.set("k1", m.k1)
    sec.set("rotation", m.rotation)
    sec.set("translation", m.translation)
    return sec


@contextmanager
def _naming(sec: Section):
    """A value that a constructor rejects becomes a FormatError naming ``sec``,
    as one that does not parse already is."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"section [{sec.name}]: {exc}") from None


def _model_from_section(sec: Section) -> PinholeModel:
    with _naming(sec):
        return PinholeModel(
            fx=sec.get_float("fx"),
            fy=sec.get_float("fy"),
            cx=sec.get_float("cx"),
            cy=sec.get_float("cy"),
            width=sec.get_int("width"),
            height=sec.get_int("height"),
            skew=sec.get_float("skew") if "skew" in sec else 0.0,
            rotation=sec.get_floats("rotation", 9).reshape(3, 3),
            translation=sec.get_floats("translation", 3),
            k1=sec.get_float("k1") if "k1" in sec else 0.0,
        )


def save_calibration_bundle(path, camera: PinholeModel, projector: PinholeModel) -> None:
    """Key-value bundle holding both device models.

    The fundamental matrix is always recomputed from the models, never stored.
    """
    formats.write_sections(
        path,
        [_model_section("camera", camera), _model_section("projector", projector)],
        header="calibration bundle (positions in mm, pose maps world -> device)",
    )


def load_calibration_bundle(path) -> tuple[PinholeModel, PinholeModel]:
    by_name = {s.name: s for s in formats.read_sections(path)}
    for need in ("camera", "projector"):
        if need not in by_name:
            raise FormatError(f"{path}: calibration bundle is missing [{need}]")
    return _model_from_section(by_name["camera"]), _model_from_section(by_name["projector"])


def _object_from_section(sec: Section) -> SceneObject:
    """The object an ``[object]`` section describes: its material, a label
    and a shape that is ``plane`` (point, normal, extent) or ``sphere``
    (center, radius). Any other shape kind is a FormatError naming the
    section and key."""
    material = Material(
        kind=sec.get_str("material"),
        diffuse_albedo=sec.get_float("albedo") if "albedo" in sec else 0.0,
        specular_strength=sec.get_float("strength") if "strength" in sec else 0.0,
    )
    kind = sec.get_str("shape")
    if kind == "plane":
        shape = Plane(sec.get_floats("point", 3), sec.get_floats("normal", 3), sec.get_floats("extent", 2))
    elif kind == "sphere":
        shape = Sphere(sec.get_floats("center", 3), sec.get_float("radius"))
    else:
        raise FormatError(f"section [{sec.name}] key 'shape': unknown shape kind {kind!r}, expected plane or sphere")
    label = sec.get_str("label")
    try:
        check_label(label)
    except ValueError as exc:
        raise FormatError(f"section [{sec.name}] key 'label': {exc}") from None
    return SceneObject(shape, material, label)


def load_scene(path) -> SceneFile:
    camera = projector = None
    schedule = ScanSchedule()
    noise = NoiseModel(timestamp_jitter_sigma_us=0.0)
    objects: list[SceneObject] = []
    for sec in formats.read_sections(path):
        with _naming(sec):
            if sec.name == "camera":
                camera = _model_from_section(sec)
            elif sec.name == "projector":
                projector = _model_from_section(sec)
            elif sec.name == "schedule":
                schedule = ScanSchedule(
                    steps_per_sweep=sec.get_int("steps_per_sweep"),
                    sweep_duration_us=sec.get_int("sweep_duration_us"),
                    recovery_us=sec.get_int("recovery_us"),
                    scan_start_us=sec.get_int("scan_start_us") if "scan_start_us" in sec else 0,
                )
            elif sec.name == "noise":
                noise = NoiseModel(
                    timestamp_jitter_sigma_us=sec.get_float("timestamp_jitter_sigma_us"),
                    spurious_rate=sec.get_float("spurious_rate"),
                    drop_probability=sec.get_float("drop_probability"),
                    seed=sec.get_int("seed"),
                )
            elif sec.name == "object":
                objects.append(_object_from_section(sec))
            else:
                raise FormatError(f"{path}: unknown section [{sec.name}]")
    if camera is None or projector is None:
        raise FormatError(f"{path}: scene needs [camera] and [projector] sections")
    if not objects:
        raise FormatError(f"{path}: scene has no objects")
    return SceneFile(camera, projector, schedule, noise, objects)
