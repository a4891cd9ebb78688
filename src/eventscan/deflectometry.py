"""Specular shape from indirect reflections, using the diffuse scene as screen.

Per indirect correspondence the virtual screen gives the 3D point whose
reflection the camera saw. At an assumed depth along the camera ray, the
mirror law fixes the surface normal as the bisector of the view and screen
directions; Frankot-Chellappa integration of those normals yields a new
shape, and the two steps alternate until the depth field converges. The
integration constant (the standoff) is re-anchored every iteration. Where the
non-integrability (curl) of the bisector field has an interior well inside
the search window, as on flat mirrors, the well fixes the standoff. Where it
has none, as on strongly curved mirrors, the curl falls monotonically toward
a window edge, a single view does not identify the standoff, and the mean
depth stays at the init prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats
from .geometry import PinholeModel, pixel_directions
from .separate import INDIRECT, ClassifiedSet
from .triangulate import DiffuseCloud, VirtualScreen

# diffuse points within this many pixels of the specular region set the default init depth
INIT_MARGIN_PX = 20
# half-width, in log depth, of the anchor search window around the init depth
ANCHOR_RANGE = 0.35
# iterations stop when the largest depth step falls below TOL_MM, or after MAX_ITER
MAX_ITER = 50
TOL_MM = 0.01
# cells whose normal-consistency residual is this many sigma off the mean are rejected
SIGMA_REJECT = 6.0
# coarse curl samples across the anchor window, and golden-section steps inside a well
ANCHOR_PROBES = 29
GOLDEN_STEPS = 40


class EmptyRegionError(ValueError):
    """No cells survive masking; nothing to integrate."""


@dataclass
class DeflectometryCorrespondences:
    """Camera pixels observing specular surfaces plus their screen points."""

    camera_pixel: np.ndarray  # (N, 2) int32
    screen_point: np.ndarray  # (N, 3) mm
    quality: np.ndarray
    uncovered: int = 0  # indirect correspondences without a screen entry

    def __len__(self) -> int:
        return len(self.quality)


def bind_screen(classified: ClassifiedSet, screen: VirtualScreen) -> DeflectometryCorrespondences:
    """Attach the virtual-screen 3D point to every indirect correspondence.

    The sub-step timing of the correspondence addresses the screen between
    grid entries, so the lookup interpolates where neighbors exist.
    Correspondences whose projector pixel has no screen entry (the laser step
    lit no diffuse surface there) are counted as uncovered.
    """
    rows = classified.where(INDIRECT)
    b = classified.base
    if len(rows) == 0:
        return DeflectometryCorrespondences(np.zeros((0, 2), np.int32), np.zeros((0, 3)), np.zeros(0))
    points, found = screen.lookup_many(b.projector_pixel[rows])
    return DeflectometryCorrespondences(
        camera_pixel=b.camera_pixel[rows][found],
        screen_point=points[found],
        quality=b.quality[rows][found],
        uncovered=int((~found).sum()),
    )


def bisector_normals(view_dirs: np.ndarray, screen_dirs: np.ndarray):
    """Unit bisector of the view and screen directions; the mirror normal.

    Returns (normals, ok); rows where the directions cancel (grazing
    degenerate) are flagged not-ok.
    """
    s = view_dirs + screen_dirs
    norm = np.linalg.norm(s, axis=-1)
    ok = norm > 1e-9
    safe = np.where(ok, norm, 1.0)
    return s / safe[..., None], ok


@dataclass
class NormalMap:
    """Unit normals on a camera-pixel grid; cell (r, c) is pixel (x0+c, y0+r)."""

    normals: np.ndarray  # (H, W, 3), world frame
    mask: np.ndarray  # (H, W) bool
    origin: tuple  # (x0, y0)

    def save_pfm(self, path, mask_path) -> None:
        img = np.where(self.mask[:, :, None], self.normals, 0.0).astype(np.float32)
        formats.write_pfm(path, img)
        formats.write_pfm(mask_path, self.mask.astype(np.float32))


RESIDUAL_COLUMNS = (("iteration", np.int64), ("max_step_mm", np.float64))


@dataclass
class SurfaceEstimate:
    """Per-cell depth along the camera ray over the same grid as a NormalMap."""

    depth: np.ndarray  # (H, W) mm along the camera ray
    mask: np.ndarray
    origin: tuple
    iterations: int = 0
    residual_history: list = field(default_factory=list)  # max |d depth| per iteration, mm
    converged: bool = True
    rejected_fraction: float = 0.0
    curl_rms: float = 0.0

    def points(self, camera: PinholeModel) -> np.ndarray:
        """Masked-in cells as 3D points in world coordinates."""
        rr, cc = np.where(self.mask)
        px = np.stack([cc + self.origin[0], rr + self.origin[1]], axis=1).astype(np.float64)
        dirs = pixel_directions(camera, px)
        return camera.center + self.depth[rr, cc][:, None] * dirs

    def save_residuals(self, path) -> None:
        hist = np.asarray(self.residual_history, dtype=np.float64)
        formats.write_table(path, RESIDUAL_COLUMNS, [np.arange(1, len(hist) + 1), hist])


def curl_rms(p: np.ndarray, q: np.ndarray, mask: np.ndarray) -> float:
    """RMS of the discrete curl over interior masked cells; 0 when integrable."""
    interior = _interior(mask)
    if not np.any(interior):
        return 0.0
    return float(np.sqrt(_curl_ms(p, q, interior)))


def _curl_ms(p: np.ndarray, q: np.ndarray, sel: np.ndarray) -> float:
    """Mean square of the discrete curl dp/dy - dq/dx over the cells ``sel``."""
    r = (np.gradient(p, axis=0) - np.gradient(q, axis=1))[sel]
    return float(np.mean(r * r))


def _interior(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[:1, :] = False
    out[-1:, :] = False
    out[:, :1] = False
    out[:, -1:] = False
    out[1:-1, 1:-1] &= mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:]
    return out


def integrate_gradients(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least-squares surface from gradients via the Fourier method.

    The mean gradient is integrated as an explicit ramp (so planar fields are
    exact); the residual field is mirror-extended to suppress periodic
    boundary artifacts and inverted with the Frankot-Chellappa frequency
    filter. Output is defined up to an additive constant (returned zero-mean).
    """
    h, w = p.shape
    pbar = float(np.mean(p))
    qbar = float(np.mean(q))
    p0 = p - pbar
    q0 = q - qbar
    # even extension of the surface: p is odd in x / even in y, q the mirror
    # image; the extension makes the periodic solve boundary-free
    p_ext = np.block([[p0, -p0[:, ::-1]], [p0[::-1, :], -p0[::-1, ::-1]]])
    q_ext = np.block([[q0, q0[:, ::-1]], [-q0[::-1, :], -q0[::-1, ::-1]]])
    # discrete Poisson form of the frequency filter: central-difference
    # divergence against 2 cos w - 2 eigenvalues; exact for quadratic
    # surfaces including the mirror seams
    div = 0.5 * (np.roll(p_ext, -1, axis=1) - np.roll(p_ext, 1, axis=1)) + 0.5 * (
        np.roll(q_ext, -1, axis=0) - np.roll(q_ext, 1, axis=0)
    )
    wy = 2.0 * np.pi * np.fft.fftfreq(2 * h)[:, None]
    wx = 2.0 * np.pi * np.fft.fftfreq(2 * w)[None, :]
    denom = (2.0 * np.cos(wx) - 2.0) + (2.0 * np.cos(wy) - 2.0)
    denom[0, 0] = 1.0
    zf = np.fft.fft2(div) / denom
    zf[0, 0] = 0.0
    z = np.real(np.fft.ifft2(zf))[:h, :w]
    yy, xx = np.mgrid[0:h, 0:w]
    z = z + pbar * xx + qbar * yy
    return z - float(np.mean(z))


def _integrate_padded(p: np.ndarray, q: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``integrate_gradients`` with every cell outside ``ok`` set to the mean gradient.

    A hard zero pad on a ragged mask, or in a rejected hole, tilts or dents
    the integrated shape.
    """
    if not np.any(ok):
        raise EmptyRegionError("all cells degenerate during integration")
    return integrate_gradients(np.where(ok, p, float(np.mean(p[ok]))), np.where(ok, q, float(np.mean(q[ok]))))


def rasterize_correspondences(binding: DeflectometryCorrespondences):
    """Scatter bound correspondences onto a 1 px grid.

    Cells hit by several correspondences average their screen points with
    quality weights. Returns (screen_grid (H, W, 3), weight_grid, mask,
    origin).
    """
    if len(binding) == 0:
        raise EmptyRegionError(f"no bound correspondences ({binding.uncovered} without a screen entry)")
    px = binding.camera_pixel
    x0, y0 = int(px[:, 0].min()), int(px[:, 1].min())
    w = int(px[:, 0].max()) - x0 + 1
    h = int(px[:, 1].max()) - y0 + 1
    screen = np.zeros((h, w, 3))
    weight = np.zeros((h, w))
    rr = px[:, 1] - y0
    cc = px[:, 0] - x0
    wq = np.maximum(binding.quality, 1e-6)
    np.add.at(weight, (rr, cc), wq)
    for axis in range(3):
        np.add.at(screen[:, :, axis], (rr, cc), wq * binding.screen_point[:, axis])
    mask = weight > 0
    screen[mask] /= weight[mask][:, None]
    return screen, weight, mask, (x0, y0)


def default_init_depth(binding: DeflectometryCorrespondences, camera: PinholeModel, cloud: DiffuseCloud):
    """Median camera-ray depth of diffuse points near the specular region.

    Falls back to the median depth of the whole diffuse cloud when no points
    lie within ``INIT_MARGIN_PX`` of the region.
    """
    if len(cloud) == 0:
        raise ValueError("cannot derive init depth from an empty diffuse cloud")
    depths = np.linalg.norm(cloud.position - camera.center, axis=1)
    px = binding.camera_pixel
    x0, x1 = px[:, 0].min(), px[:, 0].max()
    y0, y1 = px[:, 1].min(), px[:, 1].max()
    cp = cloud.camera_pixel
    near = (
        (cp[:, 0] >= x0 - INIT_MARGIN_PX)
        & (cp[:, 0] <= x1 + INIT_MARGIN_PX)
        & (cp[:, 1] >= y0 - INIT_MARGIN_PX)
        & (cp[:, 1] <= y1 + INIT_MARGIN_PX)
    )
    pool = depths[near] if np.any(near) else depths
    return float(np.median(pool))


def _log_depth_gradients(n_cam: np.ndarray, u: np.ndarray, v: np.ndarray, camera: PinholeModel, mask: np.ndarray):
    """Perspective gradient field of ln Z implied by camera-frame normals."""
    xn = (u - camera.cx) / camera.fx
    yn = (v - camera.cy) / camera.fy
    D = n_cam[:, :, 0] * xn + n_cam[:, :, 1] * yn + n_cam[:, :, 2]
    ok = mask & (np.abs(D) > 1e-9)
    safeD = np.where(ok, D, 1.0)
    p = np.where(ok, -n_cam[:, :, 0] / camera.fx / safeD, 0.0)
    q = np.where(ok, -n_cam[:, :, 1] / camera.fy / safeD, 0.0)
    return p, q, ok


def _golden_section(f, a, b):
    """Midpoint of the bracket on [a, b] after ``GOLDEN_STEPS`` golden-section steps on ``f``."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(GOLDEN_STEPS):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = f(c2)
    return 0.5 * (a + b)


def _curl_well(curl, lo: float, hi: float):
    """The log-depth constant at the interior well of ``curl`` on [lo, hi]; None without one.

    An interior minimum of the ``ANCHOR_PROBES``-point coarse landscape with
    prominence over both window edges identifies the true standoff (flat-ish
    surfaces). On strongly curved regions the far side of the ambiguity
    family is asymptotically integrable, the landscape turns monotone toward
    an edge, and the constant is unidentifiable from a single view.
    """
    coarse = np.linspace(lo, hi, ANCHOR_PROBES)
    vals = np.array([curl(c) for c in coarse])
    k = int(np.argmin(vals))
    if 2 <= k <= len(coarse) - 3 and vals[0] >= 1.5 * vals[k] and vals[-1] >= 1.5 * vals[k]:
        return _golden_section(curl, coarse[k - 1], coarse[k + 1])
    return None


def iterative_shape(
    binding: DeflectometryCorrespondences,
    camera: PinholeModel,
    init_depth: float | None = None,
    cloud: DiffuseCloud | None = None,
):
    """Alternate bisector normals and gradient integration until the shape settles.

    Depths are along camera rays. Each iteration: (1) normals from the
    current depths, (2) perspective log-depth integration via the
    Frankot-Chellappa engine, (3) the additive constant is re-anchored by
    minimizing the non-integrability (curl) of the raw bisector field; the
    search is confined to ``ANCHOR_RANGE`` in log depth around
    ``init_depth``. The curl fixes the standoff only where its coarse
    landscape has an interior well (flat mirrors, recovered from inits
    within +-20%); otherwise the mean depth stays at ``init_depth``, so on
    strongly curved mirrors the recovered shape follows the init prior
    (the specular sphere's radius errs by 19% at x0.8 and 207% at x1.2).
    Before returning, cells whose normal-consistency residual falls outside
    the ``SIGMA_REJECT`` sigma interval are rejected and the shape is
    re-integrated once.

    Without ``init_depth``, the default comes from ``cloud``
    (``default_init_depth``); a depth that is not positive is a ValueError.

    Returns (SurfaceEstimate, NormalMap); the estimate is flagged
    non-converged if ``MAX_ITER`` iterations pass without the maximum depth
    step dropping below ``TOL_MM``. An empty binding is an EmptyRegionError.
    """
    screen, _, mask, origin = rasterize_correspondences(binding)
    if init_depth is None:
        if cloud is None:
            raise ValueError("init_depth or a diffuse cloud for its default is required")
        init_depth = default_init_depth(binding, camera, cloud)
    if init_depth <= 0:
        raise ValueError("init_depth must be positive")
    h, w = mask.shape
    yy, xx = np.mgrid[0:h, 0:w]
    u = (xx + origin[0]).astype(np.float64)
    v = (yy + origin[1]).astype(np.float64)
    px = np.stack([u.ravel(), v.ravel()], axis=1)
    dirs = pixel_directions(camera, px).reshape(h, w, 3)
    center = camera.center
    R = camera.rotation
    alpha = dirs @ R[2]  # z component of each ray direction in the camera frame
    view_sign = np.sign(np.mean(alpha[mask])) or 1.0
    alpha = alpha * view_sign  # guard: rays always march forward in camera z

    def bisector_field(t, m):
        """Bisector field at depths ``t`` on cells ``m``: (p, q, ok, normals, ok_normals).

        ``normals`` are the mirror normals, valid on ``ok_normals``; ``p``,
        ``q`` are the ln Z gradients they imply, valid on ``ok``, and
        ``ok`` lies within ``ok_normals``, which lies within ``m``.
        """
        sdir = screen - (center + t[:, :, None] * dirs)
        norm = np.linalg.norm(sdir, axis=2)
        ok_normals = m & (norm > 1e-9)
        sdir = sdir / np.where(ok_normals, norm, 1.0)[:, :, None]
        normals, good = bisector_normals(-dirs, sdir)
        ok_normals &= good
        p, q, ok = _log_depth_gradients(normals @ R.T, u, v, camera, ok_normals)
        return p, q, ok, normals, ok_normals

    t = np.where(mask, float(init_depth), 0.0)
    m = mask.copy()
    if int(m.sum()) < 2:
        est = SurfaceEstimate(t, m, origin, iterations=1, residual_history=[0.0], converged=True)
        return est, NormalMap(bisector_field(t, m)[3], m, origin)

    # the anchoring constant is searched inside a fixed trust window around
    # the initial depth; the window stays put across iterations, which keeps
    # the search from chasing the shallow far-from-truth tail of the curl
    # landscape
    anchor_lo = np.log(init_depth * float(np.mean(alpha[mask]))) - ANCHOR_RANGE
    anchor_hi = anchor_lo + 2.0 * ANCHOR_RANGE
    history: list[float] = []
    converged = False
    iterations, zhat = 0, np.zeros((h, w))
    # two mean-anchored iterations relax the constant-depth start onto a
    # consistent shape; the third probes the curl, and later iterations
    # search it only if that probe found a well
    curl_well = False
    for iterations in range(1, MAX_ITER + 1):
        p, q, ok, _, _ = bisector_field(t, m)
        zhat = np.where(ok, _integrate_padded(p, q, ok), 0.0)
        zhat[ok] -= np.mean(zhat[ok])
        c = float(np.log(np.mean(t[ok] * alpha[ok])))
        if iterations == 3 or curl_well:
            interior = _interior(ok)
            if not np.any(interior):
                interior = ok

            def curl(const):
                # curl of the raw bisector field at the anchored depths; it
                # vanishes at the true standoff
                pc, qc, okc, _, _ = bisector_field(np.exp(zhat + const) / alpha, ok)
                sel = interior & okc
                return _curl_ms(pc, qc, sel) if np.any(sel) else np.inf

            c_well = _curl_well(curl, anchor_lo, anchor_hi)
            if c_well is not None:
                c, curl_well = c_well, True
        t_new = np.exp(zhat + c) / alpha
        step = float(np.max(np.abs(t_new[ok] - t[ok])))
        history.append(step)
        t = np.where(ok, t_new, t)
        m = ok
        if step < TOL_MM and iterations >= 3:
            converged = True
            break

    # normal-consistency outlier rejection, applied once
    p, q, ok, normals, ok_normals = bisector_field(t, m)
    interior = _interior(ok)
    rejected_fraction = 0.0
    if np.any(interior):
        res = np.sqrt((p - np.gradient(zhat, axis=1)) ** 2 + (q - np.gradient(zhat, axis=0)) ** 2)
        mu = float(np.mean(res[interior]))
        sd = float(np.std(res[interior]))
        outlier = interior & (np.abs(res - mu) > SIGMA_REJECT * max(sd, 1e-15))
        rejected_fraction = float(outlier.sum()) / float(m.sum())
        if np.any(outlier):
            # re-integrate once without the outliers; the anchoring constant
            # is already settled, so only preserve the surviving cells' mean
            p, q, ok, _, _ = bisector_field(t, m & ~outlier)
            z = _integrate_padded(p, q, ok)
            mean_lnz = float(np.mean(np.log(t[ok] * alpha[ok])))
            z = z + (mean_lnz - np.mean(z[ok]))
            t = np.where(ok, np.exp(z) / alpha, t)
            p, q, _, normals, ok_normals = bisector_field(t, ok)

    # the result keeps the cells with a normal; p and q are valid only on
    # cells inside them, so the field need not be evaluated again on them
    m = ok_normals
    est = SurfaceEstimate(
        depth=np.where(m, t, 0.0),
        mask=m,
        origin=origin,
        iterations=iterations,
        residual_history=history,
        converged=converged,
        rejected_fraction=rejected_fraction,
        curl_rms=curl_rms(p, q, m),
    )
    return est, NormalMap(np.where(m[:, :, None], normals, 0.0), m, origin)
