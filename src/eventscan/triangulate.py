"""Triangulate direct correspondences and build the virtual-screen lookup.

Every direct correspondence intersects the camera ray of its pixel with the
projector ray of its decoded (x_P, y_P). The skew-ray gap is the residual of
that intersection; a gap above ``gap_max_mm`` indicates a mis-decoded pixel
rather than noise and the point is dropped. The surviving cloud doubles as
the deflectometry screen: per integer projector pixel the best point is kept,
because that is the surface point the laser lit at that step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats
from .geometry import PinholeModel, pixel_directions, triangulate_ray_arrays
from .separate import DIRECT, ClassifiedSet


@dataclass
class DiffuseCloud:
    """Triangulated single-bounce points, one per direct correspondence."""

    position: np.ndarray  # (N, 3) mm
    camera_pixel: np.ndarray  # (N, 2) int32
    projector_pixel: np.ndarray  # (N, 2) float64
    gap: np.ndarray  # (N,) mm skew residual
    quality: np.ndarray  # (N,)
    dropped_gap: int = 0
    dropped_unstable: int = 0

    def __len__(self) -> int:
        return len(self.gap)

    def save_ply(self, path) -> None:
        formats.write_ply(
            path,
            self.position,
            extra={
                "quality": self.quality,
                "gap": self.gap,
                "x_C": self.camera_pixel[:, 0].astype(np.float64),
                "y_C": self.camera_pixel[:, 1].astype(np.float64),
                "x_P": self.projector_pixel[:, 0],
                "y_P": self.projector_pixel[:, 1],
            },
            comment="eventscan diffuse cloud (mm)",
        )

    @staticmethod
    def load_ply(path) -> "DiffuseCloud":
        vertices, extras = formats.read_ply(path)
        cam = np.stack([extras["x_C"], extras["y_C"]], axis=1).astype(np.int32)
        proj = np.stack([extras["x_P"], extras["y_P"]], axis=1)
        return DiffuseCloud(vertices, cam, proj, extras.get("gap", np.zeros(len(vertices))), extras.get("quality", np.ones(len(vertices))))


def triangulate_direct(
    classified: ClassifiedSet,
    camera: PinholeModel,
    projector: PinholeModel,
    gap_max_mm: float = 1.0,
) -> DiffuseCloud:
    """Skew-ray midpoint triangulation of all direct correspondences.

    Unstable (near-parallel) pairs and points whose residual gap exceeds
    ``gap_max_mm`` are dropped per point and counted, never raised.
    """
    rows = classified.where(DIRECT)
    b = classified.base
    if len(rows) == 0:
        return DiffuseCloud(np.zeros((0, 3)), np.zeros((0, 2), np.int32), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    cam_px = b.camera_pixel[rows].astype(np.float64)
    proj_px = b.projector_pixel[rows]
    cam_dirs = pixel_directions(camera, cam_px)
    proj_dirs = pixel_directions(projector, proj_px)
    points, gaps, cross = triangulate_ray_arrays(
        np.broadcast_to(camera.center, cam_dirs.shape),
        cam_dirs,
        np.broadcast_to(projector.center, proj_dirs.shape),
        proj_dirs,
    )
    stable = cross > 1e-9
    ok = stable & (gaps <= gap_max_mm)
    return DiffuseCloud(
        position=points[ok],
        camera_pixel=b.camera_pixel[rows][ok],
        projector_pixel=proj_px[ok],
        gap=gaps[ok],
        quality=b.quality[rows][ok],
        dropped_gap=int((stable & ~ok).sum()),
        dropped_unstable=int((~stable).sum()),
    )


@dataclass
class VirtualScreen:
    """Best diffuse point per integer projector pixel.

    Lookup by the projector pixel that lit a point; collisions are resolved
    by quality, then by smaller gap. Entries keep their continuous sweep
    position so queries can interpolate between grid samples.
    """

    entries: dict = field(default_factory=dict)  # (x_P, y_P) int -> row into cloud arrays
    position: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    proj_pixel: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    quality: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gap: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, projector_pixel) -> np.ndarray | None:
        key = (int(np.floor(projector_pixel[0] + 0.5)), int(np.floor(projector_pixel[1] + 0.5)))
        row = self.entries.get(key)
        return None if row is None else self.position[row]

    def lookup_many(self, projector_pixels: np.ndarray, interpolate: bool = False):
        """Vectorized lookup; returns (points (N, 3), found (N,)).

        With ``interpolate`` a local affine model is fit through the 3x3
        neighborhood entries (at their true continuous sweep positions) and
        evaluated at the query, which removes most of the grid-quantization
        error on smooth screens; single-entry lookup is the fallback.
        ``found`` always reflects the rounded bin, so coverage accounting is
        unchanged.
        """
        qp = np.atleast_2d(np.asarray(projector_pixels, dtype=np.float64))
        pp = np.floor(qp + 0.5).astype(np.int64)
        points = np.zeros((len(pp), 3))
        found = np.zeros(len(pp), dtype=bool)
        for i, (xk, yk) in enumerate(pp):
            row = self.entries.get((int(xk), int(yk)))
            if row is None:
                continue
            found[i] = True
            points[i] = self.position[row]
            if not interpolate:
                continue
            rows = [
                r
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (r := self.entries.get((int(xk) + dx, int(yk) + dy))) is not None
            ]
            if len(rows) < 4:
                continue
            rel = self.proj_pixel[rows] - qp[i]
            A = np.concatenate([rel, np.ones((len(rows), 1))], axis=1)
            sol, *_ = np.linalg.lstsq(A, self.position[rows], rcond=None)
            points[i] = sol[2]
        return points, found

    def save_text(self, path) -> None:
        keys = sorted(self.entries)
        rows = [self.entries[k] for k in keys]
        formats.write_table(
            path,
            ["x_P", "y_P", "x", "y", "z", "quality", "gap"],
            [
                np.array([k[0] for k in keys]),
                np.array([k[1] for k in keys]),
                self.position[rows, 0] if rows else np.zeros(0),
                self.position[rows, 1] if rows else np.zeros(0),
                self.position[rows, 2] if rows else np.zeros(0),
                self.quality[rows] if rows else np.zeros(0),
                self.gap[rows] if rows else np.zeros(0),
            ],
        )


def build_virtual_screen(cloud: DiffuseCloud) -> VirtualScreen:
    screen = VirtualScreen(
        position=cloud.position, proj_pixel=cloud.projector_pixel, quality=cloud.quality, gap=cloud.gap
    )
    if len(cloud) == 0:
        return screen
    keys = np.floor(cloud.projector_pixel + 0.5).astype(np.int64)
    entries: dict = {}
    for row in range(len(cloud)):
        key = (int(keys[row, 0]), int(keys[row, 1]))
        old = entries.get(key)
        if old is None:
            entries[key] = row
            continue
        better = cloud.quality[row] > cloud.quality[old] or (
            cloud.quality[row] == cloud.quality[old] and cloud.gap[row] < cloud.gap[old]
        )
        if better:
            entries[key] = row
    screen.entries = entries
    return screen
