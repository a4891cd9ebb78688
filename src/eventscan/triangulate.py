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
from .decode import CORRESPONDENCE_COLUMNS, _runs
from .geometry import PinholeModel, pixel_directions, triangulate_ray_arrays
from .separate import DIRECT, ClassifiedSet


# diffuse.ply; PLY calls every property double, and x_C/y_C hold integers;
# quality, x_C/y_C and x_P/y_P are the correspondence entries, domains included
CLOUD_COLUMNS = (formats.XYZ, CORRESPONDENCE_COLUMNS[3], ("gap", np.float64, (0, np.inf)), *CORRESPONDENCE_COLUMNS[:2])


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
        arrays = [self.position, self.quality, self.gap, self.camera_pixel, self.projector_pixel]
        formats.write_ply(path, CLOUD_COLUMNS, arrays, comment="eventscan diffuse cloud (mm)")

    @staticmethod
    def load_ply(path) -> "DiffuseCloud":
        position, quality, gap, camera_pixel, projector_pixel = formats.read_ply(path, CLOUD_COLUMNS)
        return DiffuseCloud(position, camera_pixel, projector_pixel, gap, quality)


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
    proj_px = b.projector_pixel[rows]
    points, gaps, cross = triangulate_ray_arrays(
        camera.center,
        pixel_directions(camera, b.camera_pixel[rows]),
        projector.center,
        pixel_directions(projector, proj_px),
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


# Screen keys pack an integer projector pixel (x, y) as x * 2**32 + (y + 2**31),
# so sorted keys run in (x, y) order and a neighbour is a fixed key offset.
_SCREEN_SHIFT = 32
_SCREEN_BIAS = 1 << 31
_SCREEN_LIMIT = 1 << 30  # |x|, |y| bound that keeps every neighbour key unambiguous
# 3x3 neighbourhood key offsets, dx outer, dy inner
_NEIGHBOURS = np.array([(dx << _SCREEN_SHIFT) + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)
# a neighbourhood fit takes the normal equations when det(N) > _FIT_MIN_DET * trace(N)**3,
# which bounds the condition number of N (3x3, positive semi-definite) by 1 / _FIT_MIN_DET
_FIT_MIN_DET = 1e-3


# screen.txt: one row per key, the best point of its integer projector pixel
SCREEN_COLUMNS = ((("x_P", "y_P"), np.int64), formats.XYZ, ("quality", np.float64), ("gap", np.float64))


def _screen_pixels(projector_pixels: np.ndarray) -> np.ndarray:
    """Nearest integer projector pixel (half-up rounding), int64 (N, 2)."""
    return np.floor(projector_pixels + 0.5).astype(np.int64)


def _screen_keys(pixels: np.ndarray) -> np.ndarray:
    return (pixels[:, 0] << _SCREEN_SHIFT) + (pixels[:, 1] + _SCREEN_BIAS)


@dataclass
class VirtualScreen:
    """Best diffuse point per integer projector pixel.

    ``keys`` holds one packed integer projector pixel per entry, sorted, and
    ``rows`` the cloud row that won that pixel. Collisions are resolved by
    quality, then by smaller gap; a full tie keeps the earlier cloud row.
    Entries keep their continuous sweep position so queries can interpolate
    between grid samples.
    """

    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    position: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    proj_pixel: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    quality: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gap: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.keys)

    def _find(self, keys: np.ndarray):
        """(hit, row) per key; ``row`` is -1 where there is no entry."""
        if len(self.keys) == 0:
            return np.zeros(keys.shape, dtype=bool), np.full(keys.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[at] == keys
        return hit, np.where(hit, self.rows[at], -1)

    def lookup_many(self, projector_pixels: np.ndarray):
        """Vectorized lookup; returns (points (N, 3), found (N,)).

        A local affine model is fit through the 3x3 neighborhood entries (at
        their true continuous sweep positions) and evaluated at the query,
        which removes most of the grid-quantization error on smooth screens;
        with fewer than 4 entries there, the single entry is the fallback.
        ``found`` reflects the rounded bin, so coverage accounting does not
        depend on the fit.

        All fits are solved at once through their 3x3 normal equations, with
        positions taken relative to the query's own entry. A neighborhood
        whose normal matrix is singular or ill-conditioned (determinant at
        most ``_FIT_MIN_DET`` of its trace cubed) is fit by least squares
        instead, one query at a time.
        """
        qp = np.atleast_2d(np.asarray(projector_pixels, dtype=np.float64))
        # a query beyond the key range can match no entry, nor can its neighbours
        pp = np.clip(_screen_pixels(qp), -_SCREEN_LIMIT - 2, _SCREEN_LIMIT + 1)
        found, row = self._find(_screen_keys(pp))
        points = np.zeros((len(pp), 3))
        points[found] = self.position[row[found]]
        queries = np.flatnonzero(found)
        near, near_row = self._find(_screen_keys(pp[queries])[:, None] + _NEIGHBOURS)
        fit = near.sum(axis=1) >= 4
        queries, near, near_row = queries[fit], near[fit], near_row[fit]
        # one design row (dx, dy, 1) and one target per neighbour; rows without an entry weigh nothing
        design = np.concatenate([self.proj_pixel[near_row] - qp[queries, None], np.ones(near.shape + (1,))], axis=2)
        A = np.where(near[..., None], design, 0.0)
        origin = points[queries]
        B = np.where(near[..., None], self.position[near_row] - origin[:, None], 0.0)
        At = A.transpose(0, 2, 1)
        normal = At @ A
        solvable = np.linalg.det(normal) > _FIT_MIN_DET * np.trace(normal, axis1=1, axis2=2) ** 3
        points[queries[solvable]] = origin[solvable] + np.linalg.solve(normal[solvable], (At @ B)[solvable])[:, 2]
        for j in np.flatnonzero(~solvable):
            ok = near[j]
            sol, *_ = np.linalg.lstsq(design[j][ok], self.position[near_row[j][ok]], rcond=None)
            points[queries[j]] = sol[2]
        return points, found

    def save_text(self, path) -> None:
        rows = self.rows
        arrays = [_screen_pixels(self.proj_pixel[rows]), self.position[rows], self.quality[rows], self.gap[rows]]
        formats.write_table(path, SCREEN_COLUMNS, arrays)


def build_virtual_screen(cloud: DiffuseCloud) -> VirtualScreen:
    """The screen of ``cloud``: per integer projector pixel, its best row.

    One stable sort of the packed keys groups the rows of each pixel in cloud
    order. Per group a max-reduce picks the best quality and, among the rows
    that reach it, a min-reduce the smallest gap; a full tie keeps the first
    such row, i.e. the earliest in the cloud. A NaN quality or gap would
    leave its pixel without a winner; ``CLOUD_COLUMNS`` refuses one on load.
    """
    screen = VirtualScreen(
        position=cloud.position, proj_pixel=cloud.projector_pixel, quality=cloud.quality, gap=cloud.gap
    )
    if len(cloud) == 0:
        return screen
    if not np.all(np.abs(cloud.projector_pixel) < _SCREEN_LIMIT - 1):
        raise ValueError(f"projector pixels must be finite and within +-{_SCREEN_LIMIT - 1} to key the screen")
    keys = _screen_keys(_screen_pixels(cloud.projector_pixel))
    order = np.argsort(keys, kind="stable")
    first, stop, screen.keys = _runs(keys[order])
    group = np.repeat(np.arange(len(first)), stop - first)
    quality = cloud.quality[order]
    best = quality == np.maximum.reduceat(quality, first)[group]
    gap = np.where(best, cloud.gap[order], np.inf)
    best &= gap == np.minimum.reduceat(gap, first)[group]
    # every group has a winner; its first one is the earliest cloud row
    screen.rows = order[np.minimum.reduceat(np.where(best, np.arange(len(order)), len(order)), first)]
    return screen
