"""Declarative scene description: objects, materials, rig, scan schedule, noise.

A scene file is a sectioned key-value document (see formats.py). It carries
everything one simulation run needs: the two device models, the sweep
schedule, the noise model and the object list. Each section's keys are
declared once, below the dataclasses; ``load_scene`` refuses a key or a
section that no declaration names, and a repeated section other than
``[object]``. Every float in it must be finite; the constructors below
reject NaN and infinities.
"""

from __future__ import annotations

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

    def step_time(self, sweep: int, position) -> np.ndarray:
        """Time at which the sweeping line crosses ``position``, rounded half up
        to the microsecond: a continuous position's crossing, or at an
        integer step the projector-side timestamp."""
        t = self.sweep_start(sweep) + np.asarray(position, dtype=np.float64) * self.step_us
        return np.floor(t + 0.5).astype(np.int64)


@dataclass(frozen=True)
class NoiseModel:
    """Event corruption applied after tracing; the defaults add none."""

    timestamp_jitter_sigma_us: float = 0.0
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


# The key declarations (see formats.py) of the scene file's sections; a
# calibration bundle holds [camera] and [projector] as the scene does
MODEL_KEYS = {
    "width": int, "height": int, "fx": float, "fy": float, "cx": float, "cy": float,
    "skew": float | None, "k1": float | None, "rotation": 9, "translation": 3,
}
SCHEDULE_KEYS = {"steps_per_sweep": int, "sweep_duration_us": int, "recovery_us": int, "scan_start_us": int | None}
NOISE_KEYS = {"timestamp_jitter_sigma_us": float, "spurious_rate": float, "drop_probability": float, "seed": int}
# an [object] holds these keys and those of its shape kind
OBJECT_KEYS = {"label": str, "material": str, "albedo": float | None, "strength": float | None, "shape": str}
SHAPES = {"plane": (Plane, {"point": 3, "normal": 3, "extent": 2}), "sphere": (Sphere, {"center": 3, "radius": float})}


def _made(path, sections: list, make) -> list:
    """``make(sec)`` for each of ``sections``. A FormatError names ``path``,
    and a value that a constructor rejects becomes one naming ``path`` and
    the section."""
    made = []
    for sec in sections:
        try:
            made.append(make(sec))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise FormatError(f"{path}: section [{sec.name}]: {exc}") from None
    return made


def _model_from_section(sec: Section) -> PinholeModel:
    values = sec.take(MODEL_KEYS)
    return PinholeModel(**values | {"rotation": values["rotation"].reshape(3, 3)})


def save_calibration_bundle(path, camera: PinholeModel, projector: PinholeModel) -> None:
    """Key-value bundle holding both device models.

    The fundamental matrix is always recomputed from the models, never stored.
    """
    formats.write_sections(
        path,
        [Section(name, {key: formats.fmt(getattr(m, key)) for key in MODEL_KEYS}) for name, m in (("camera", camera), ("projector", projector))],
        header="calibration bundle (positions in mm, pose maps world -> device)",
    )


def load_calibration_bundle(path) -> tuple[PinholeModel, PinholeModel]:
    (camera,), (projector,) = (_made(path, secs, _model_from_section) for secs in formats.read_known(path, "camera projector").values())
    return camera, projector


def _object_from_section(sec: Section) -> SceneObject:
    """The object an ``[object]`` section describes: ``OBJECT_KEYS`` and the
    keys of its shape kind in ``SHAPES``. Any other shape kind is a
    FormatError naming the section and key."""
    kind = sec.get_str("shape")
    if kind not in SHAPES:
        raise FormatError(f"section [{sec.name}] key 'shape': unknown shape kind {kind!r}, expected {' or '.join(SHAPES)}")
    make, shape_keys = SHAPES[kind]
    values = sec.take(OBJECT_KEYS | shape_keys)
    try:
        check_label(values["label"])
    except ValueError as exc:
        raise FormatError(f"section [{sec.name}] key 'label': {exc}") from None
    material = Material(values["material"], values.get("albedo", 0.0), values.get("strength", 0.0))
    return SceneObject(make(**{key: values[key] for key in shape_keys}), material, values["label"])


def load_scene(path) -> SceneFile:
    """The scene file ``path``: one [camera] and one [projector], at most one
    [schedule] and one [noise], each of which reads as its dataclass's
    defaults when absent, and one [object] per object. Any error is a
    FormatError naming the file."""
    found = formats.read_known(path, "camera projector schedule? noise? object+")
    (camera,), (projector,) = (_made(path, found[name], _model_from_section) for name in ("camera", "projector"))
    (schedule,) = _made(path, found["schedule"], lambda sec: ScanSchedule(**sec.take(SCHEDULE_KEYS))) or [ScanSchedule()]
    (noise,) = _made(path, found["noise"], lambda sec: NoiseModel(**sec.take(NOISE_KEYS))) or [NoiseModel()]
    return SceneFile(camera, projector, schedule, noise, _made(path, found["object"], _object_from_section))
