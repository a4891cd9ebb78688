"""Pinhole camera/projector models, rays, triangulation and epipolar geometry.

Conventions used throughout the package:

* positions are in millimeters, directions are unit vectors,
* pixel coordinates are ``(x, y)`` with x along the sensor width; integer
  coordinates address pixel centers,
* a device pose maps world to device coordinates, ``X_dev = R @ X + t``,
* the projector is an inverse camera and uses the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Rows per BLAS call in ``rows_matmul``. OpenBLAS runs a product this small on
# the calling thread. From about 10^5 rows of three columns it wakes a worker
# thread, which spins on another core after the call returns and so burns CPU
# time without shortening the run.
ROW_BLOCK = 8192


class DegenerateGeometryError(ValueError):
    """Rig configuration does not define the requested entity (e.g. zero baseline)."""


def require_finite(**values) -> None:
    """ValueError naming the first of ``values`` (scalars or arrays) that holds NaN or an infinity."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def unit(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalize vectors along ``axis``; raises on zero-length input."""
    return _normalize(np.array(v, dtype=np.float64), axis)


def _norm_of_squares(v: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """``np.linalg.norm(v, axis=axis)`` of a float64 array, the same bits, squaring ``v`` in place."""
    v *= v
    return np.sqrt(np.add.reduce(v, axis=axis, keepdims=keepdims))


def _normalize(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """``unit`` of a float64 array, divided in place."""
    n = _norm_of_squares(v.copy(), axis, keepdims=True)
    if np.any(n < 1e-300):
        raise ValueError("cannot normalize zero-length vector")
    v /= n
    return v


def rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for an (N, k) ``a``, ``ROW_BLOCK`` rows at a time into one array: the same bits.

    A block of one row would change bits: numpy sends a (1, k) @ (k,) product
    through its dot kernel, not gemv, so a one-row tail joins the block before it.
    """
    if a.ndim != 2 or len(a) <= ROW_BLOCK:
        return a @ b
    n = len(a)
    out = np.empty((n,) + b.shape[1:], dtype=np.result_type(a, b))
    start = 0
    while start < n:
        stop = start + ROW_BLOCK if n - start != ROW_BLOCK + 1 else n
        np.matmul(a[start:stop], b, out=out[start:stop])
        start = stop
    return out


def cross_matrix(t: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that cross_matrix(t) @ v == cross(t, v)."""
    t = np.asarray(t, dtype=np.float64)
    return np.array(
        [
            [0.0, -t[2], t[1]],
            [t[2], 0.0, -t[0]],
            [-t[1], t[0], 0.0],
        ]
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PinholeModel:
    """Intrinsics plus world->device pose for a camera or projector.

    ``k1`` is a single radial distortion coefficient applied in normalized
    image coordinates; the inverse mapping uses 8 fixed-point iterations.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    skew: float = 0.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    k1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rotation", _readonly(self.rotation))
        object.__setattr__(self, "translation", _readonly(self.translation))
        require_finite(fx=self.fx, fy=self.fy, cx=self.cx, cy=self.cy, skew=self.skew, k1=self.k1,
                       rotation=self.rotation, translation=self.translation)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the sensor")
        R = self.rotation
        if R.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with determinant +1")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @property
    def center(self) -> np.ndarray:
        """Optical center in world coordinates."""
        return -self.rotation.T @ self.translation

    def to_device(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return rows_matmul(points, self.rotation.T) + self.translation


def _distort(xn: np.ndarray, yn: np.ndarray, k1: float):
    r2 = xn * xn + yn * yn
    f = 1.0 + k1 * r2
    return xn * f, yn * f


def _undistort(xd: np.ndarray, yd: np.ndarray, k1: float):
    # Fixed-point inversion; 8 iterations is ample for |k1 r^2| << 1.
    if k1 == 0:
        return xd, yd  # each iteration would divide by exactly 1.0
    xn, yn = xd, yd
    for _ in range(8):
        r2 = xn * xn + yn * yn
        f = 1.0 + k1 * r2
        xn = xd / f
        yn = yd / f
    return xn, yn


def project_points(model: PinholeModel, points: np.ndarray):
    """Project an (N, 3) world point array; returns ((N, 2) pixels, (N,) valid).

    Points at or behind the optical center are flagged invalid instead of
    raising, so bulk callers can mask.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dev = model.to_device(pts)
    z = dev[:, 2]
    valid = z > 1e-9
    zsafe = np.where(valid, z, 1.0)
    xn = dev[:, 0] / zsafe
    yn = dev[:, 1] / zsafe
    xd, yd = _distort(xn, yn, model.k1)
    u = model.fx * xd + model.skew * yd + model.cx
    v = model.fy * yd + model.cy
    return np.stack([u, v], axis=-1), valid


def pixel_directions(model: PinholeModel, pixels: np.ndarray) -> np.ndarray:
    """Unit world-frame ray directions through an (N, 2) pixel array."""
    px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    yd = (px[:, 1] - model.cy) / model.fy
    xd = (px[:, 0] - model.cx - model.skew * yd) / model.fx
    del px
    xn, yn = _undistort(xd, yd, model.k1)
    del xd, yd
    dirs = np.stack([xn, yn, np.ones_like(xn)], axis=-1)
    del xn, yn
    dirs = rows_matmul(dirs, model.rotation)
    return _normalize(dirs)


def fundamental_from_models(camera: PinholeModel, projector: PinholeModel) -> np.ndarray:
    """Fundamental matrix mapping a projector pixel to its camera epipolar line.

    Normalized to unit Frobenius norm with a deterministic sign. Rank 2 by
    construction. Distortion is ignored (the epipolar constraint is defined
    for the pinhole part of the model).
    """
    R_rel = camera.rotation @ projector.rotation.T
    t_rel = camera.translation - R_rel @ projector.translation
    if np.linalg.norm(t_rel) < 1e-9:
        raise DegenerateGeometryError("camera and projector centers coincide (zero baseline)")
    E = cross_matrix(t_rel) @ R_rel
    F = np.linalg.inv(camera.K).T @ E @ np.linalg.inv(projector.K)
    F = F / np.linalg.norm(F)
    flat = np.abs(F).argmax()
    if F.flat[flat] < 0:
        F = -F
    return F


def epipolar_lines(F: np.ndarray, projector_pixels: np.ndarray) -> np.ndarray:
    """Camera epipolar lines (a, b, c), normalized so a^2 + b^2 = 1."""
    px = np.atleast_2d(np.asarray(projector_pixels, dtype=np.float64))
    h = np.concatenate([px, np.ones((px.shape[0], 1))], axis=1)
    lines = rows_matmul(h, F.T)
    norm = np.hypot(lines[:, 0], lines[:, 1])
    norm = np.where(norm < 1e-300, 1.0, norm)
    return lines / norm[:, None]


def epipolar_distances(F: np.ndarray, projector_pixels: np.ndarray, camera_pixels: np.ndarray) -> np.ndarray:
    """Point-to-epipolar-line distance in camera pixels, one per row."""
    lines = epipolar_lines(F, projector_pixels)
    cam = np.atleast_2d(np.asarray(camera_pixels, dtype=np.float64))
    return np.abs(lines[:, 0] * cam[:, 0] + lines[:, 1] * cam[:, 1] + lines[:, 2])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (N, 3) float64 arrays, the same bits, into one new array.

    The same multiply and subtract steps as numpy's, without copying either input.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    scratch = np.empty(len(out))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[:, j], b[:, k], out=out[:, i])
        np.multiply(a[:, k], b[:, j], out=scratch)
        out[:, i] -= scratch
    return out


def triangulate_ray_arrays(o1, d1, o2, d2):
    """Closest-segment midpoints for ray arrays.

    The origins are (N, 3) arrays or single (3,) points shared by every ray.
    Returns (points (N, 3), gaps (N,), cross_norm (N,)). Near-parallel pairs
    give untrustworthy points; callers filter on cross_norm.
    """
    o1 = np.atleast_2d(o1)
    d1 = np.atleast_2d(d1)
    o2 = np.atleast_2d(o2)
    d2 = np.atleast_2d(d2)
    cross_norm = _norm_of_squares(_cross(d1, d2), axis=1)
    w = o1 - o2
    b = np.sum(d1 * d2, axis=1)
    d = np.sum(d1 * w, axis=1)
    e = np.sum(d2 * w, axis=1)
    denom = 1.0 - b * b
    safe = np.where(denom < 1e-300, 1.0, denom)
    del denom
    s = (b * e - d) / safe
    t = (e - b * d) / safe
    del b, d, e, safe
    # p1 = o1 + s d1 and p2 = o2 + t d2, then their midpoint and their gap
    p1 = s[:, None] * d1
    p1 += o1
    p2 = t[:, None] * d2
    p2 += o2
    del s, t, d1, d2
    points = p1 + p2
    points *= 0.5
    p1 -= p2
    del p2
    return points, _norm_of_squares(p1, axis=1), cross_norm


def reflect_direction(directions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Mirror law applied to (N, 3) direction/normal arrays."""
    d = np.atleast_2d(directions)
    n = np.atleast_2d(normals)
    return d - 2.0 * np.sum(d * n, axis=1, keepdims=True) * n


def rigid_transform_model(model: PinholeModel, R: np.ndarray, t: np.ndarray) -> PinholeModel:
    """Model observing a world rigidly moved by X -> R @ X + t."""
    R = np.asarray(R, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    return replace(model, rotation=model.rotation @ R.T, translation=model.translation - model.rotation @ R.T @ t)
