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
    points, found = screen.lookup_many(b.projector_pixel[rows], interpolate=True)
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

    def save_pfm(self, path, mask_path=None) -> None:
        img = np.where(self.mask[:, :, None], self.normals, 0.0).astype(np.float32)
        formats.write_pfm(path, img)
        if mask_path is not None:
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
    dpdy = np.gradient(p, axis=0)
    dqdx = np.gradient(q, axis=1)
    interior = _interior(mask)
    if not np.any(interior):
        return 0.0
    r = (dpdy - dqdx)[interior]
    return float(np.sqrt(np.mean(r * r)))


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


def rasterize_correspondences(binding: DeflectometryCorrespondences):
    """Scatter bound correspondences onto a 1 px grid.

    Cells hit by several correspondences average their screen points with
    quality weights. Returns (screen_grid (H, W, 3), weight_grid, mask,
    origin).
    """
    if len(binding) == 0:
        raise EmptyRegionError("no bound correspondences")
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


def default_init_depth(binding: DeflectometryCorrespondences, camera: PinholeModel, cloud: DiffuseCloud, margin_px: int = 20):
    """Median camera-ray depth of diffuse points near the specular region.

    Falls back to the median depth of the whole diffuse cloud when no points
    lie within ``margin_px`` of the region.
    """
    if len(cloud) == 0:
        raise ValueError("cannot derive init depth from an empty diffuse cloud")
    depths = np.linalg.norm(cloud.position - camera.center, axis=1)
    px = binding.camera_pixel
    x0, x1 = px[:, 0].min(), px[:, 0].max()
    y0, y1 = px[:, 1].min(), px[:, 1].max()
    cp = cloud.camera_pixel
    near = (
        (cp[:, 0] >= x0 - margin_px)
        & (cp[:, 0] <= x1 + margin_px)
        & (cp[:, 1] >= y0 - margin_px)
        & (cp[:, 1] <= y1 + margin_px)
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


def iterative_shape(
    binding: DeflectometryCorrespondences,
    camera: PinholeModel,
    init_depth: float | None = None,
    max_iter: int = 50,
    tol_mm: float = 0.01,
    cloud: DiffuseCloud | None = None,
    sigma_reject: float = 6.0,
    anchor_range: float = 0.35,
):
    """Alternate bisector normals and gradient integration until the shape settles.

    Depths are along camera rays. Each iteration: (1) normals from the
    current depths, (2) perspective log-depth integration via the
    Frankot-Chellappa engine, (3) the additive constant is re-anchored by
    minimizing the non-integrability (curl) of the raw bisector field; the
    search is confined to ``anchor_range`` in log depth around
    ``init_depth``. The curl fixes the standoff only where its coarse
    landscape has an interior well (flat mirrors, recovered from inits
    within +-20%); otherwise the mean depth stays at ``init_depth``, so on
    strongly curved mirrors the recovered shape follows the init prior
    (the specular sphere's radius errs by 19% at x0.8 and 207% at x1.2).
    Before returning, cells whose normal-consistency residual falls outside
    the ``sigma_reject`` sigma interval are rejected and the shape is
    re-integrated once.

    Returns (SurfaceEstimate, NormalMap); the estimate is flagged
    non-converged if ``max_iter`` passes without the maximum depth step
    dropping below ``tol_mm``.
    """
    if init_depth is None:
        if cloud is None:
            raise ValueError("init_depth or a diffuse cloud for its default is required")
        init_depth = default_init_depth(binding, camera, cloud)
    if init_depth <= 0:
        raise ValueError("init_depth must be positive")
    screen, _, mask, origin = rasterize_correspondences(binding)
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

    def defl_normals(t, m):
        S = center + t[:, :, None] * dirs
        vdir = -dirs
        sdir = screen - S
        norm = np.linalg.norm(sdir, axis=2)
        ok = m & (norm > 1e-9)
        sdir = sdir / np.where(ok, norm, 1.0)[:, :, None]
        normals, good = bisector_normals(vdir, sdir)
        return normals, ok & good

    def grad_field(t, m):
        normals, ok = defl_normals(t, m)
        n_cam = normals @ R.T
        p, q, ok2 = _log_depth_gradients(n_cam, u, v, camera, ok)
        return p, q, ok & ok2, normals

    t = np.where(mask, float(init_depth), 0.0)
    history: list[float] = []
    converged = False
    m = mask.copy()
    zhat = np.zeros((h, w))
    iterations = 0

    single_cell = int(m.sum()) < 2
    if single_cell:
        normals, _ = defl_normals(t, m)
        est = SurfaceEstimate(t, m, origin, iterations=1, residual_history=[0.0], converged=True)
        return est, NormalMap(normals, m, origin)

    # the anchoring constant is searched inside a fixed trust window around
    # the initial depth; the window stays put across iterations, which keeps
    # the search from chasing the shallow far-from-truth tail of the curl
    # landscape
    anchor_lo = np.log(init_depth * float(np.mean(alpha[mask]))) - anchor_range
    anchor_hi = anchor_lo + 2.0 * anchor_range

    def integrate_once(t_cur, m_cur, anchor: str):
        p, q, ok, _ = grad_field(t_cur, m_cur)
        if not np.any(ok):
            raise EmptyRegionError("all cells degenerate during integration")
        # pad outside the region with the mean gradient; a hard zero pad on a
        # ragged mask tilts the integrated shape
        pz = np.where(ok, p, float(np.mean(p[ok])))
        qz = np.where(ok, q, float(np.mean(q[ok])))
        zhat = integrate_gradients(pz, qz)
        zhat = np.where(ok, zhat, 0.0)
        zhat[ok] -= np.mean(zhat[ok])
        interior = _interior(ok)
        if not np.any(interior):
            interior = ok

        def non_integrability(c):
            # curl of the raw bisector field at the anchored depths; it
            # vanishes at the true standoff
            t_c = np.exp(zhat + c) / alpha
            pc, qc, okc, _ = grad_field(t_c, ok)
            sel = interior & okc
            if not np.any(sel):
                return np.inf
            r = (np.gradient(pc, axis=0) - np.gradient(qc, axis=1))[sel]
            return float(np.mean(r * r))

        mode = anchor
        c_best = float(np.log(np.mean(t_cur[ok] * alpha[ok])))
        if anchor in ("curl", "probe"):
            coarse = np.linspace(anchor_lo, anchor_hi, 29)
            vals = np.array([non_integrability(c) for c in coarse])
            k = int(np.argmin(vals))
            # An interior minimum with prominence over both window edges
            # identifies the true standoff (flat-ish surfaces). On strongly
            # curved regions the far side of the ambiguity family is
            # asymptotically integrable, the landscape turns monotone toward
            # an edge, and the constant is unidentifiable from a single view:
            # keep the mean anchored at the init prior.
            well = (
                2 <= k <= len(coarse) - 3
                and vals[0] >= 1.5 * vals[k]
                and vals[-1] >= 1.5 * vals[k]
            )
            if well:
                mode = "curl"
                a = coarse[k - 1]
                b = coarse[k + 1]
                invphi = (np.sqrt(5.0) - 1.0) / 2.0
                c1 = b - invphi * (b - a)
                c2 = a + invphi * (b - a)
                f1, f2 = non_integrability(c1), non_integrability(c2)
                for _ in range(40):
                    if f1 <= f2:
                        b, c2, f2 = c2, c1, f1
                        c1 = b - invphi * (b - a)
                        f1 = non_integrability(c1)
                    else:
                        a, c1, f1 = c1, c2, f2
                        c2 = a + invphi * (b - a)
                        f2 = non_integrability(c2)
                c_best = 0.5 * (a + b)
            else:
                mode = "mean"
        t_new = np.exp(zhat + c_best) / alpha
        return np.where(ok, t_new, 0.0), ok, zhat, mode

    # two mean-anchored iterations relax the constant-depth start onto a
    # consistent shape; the anchoring mode is then probed once and locked
    anchor = "mean"
    for iterations in range(1, max_iter + 1):
        if iterations == 3:
            anchor = "probe"
        t_new, ok, zhat, mode = integrate_once(t, m, anchor)
        if anchor == "probe":
            anchor = mode
        step = float(np.max(np.abs(t_new[ok] - t[ok])))
        history.append(step)
        t = np.where(ok, t_new, t)
        m = ok
        if step < tol_mm and iterations >= 3:
            converged = True
            break

    # normal-consistency outlier rejection, applied once
    normals, ok_n = defl_normals(t, m)
    gx = np.gradient(zhat, axis=1)
    gy = np.gradient(zhat, axis=0)
    p, q, okp, _ = grad_field(t, m)
    interior = _interior(m & ok_n & okp)
    rejected_fraction = 0.0
    if np.any(interior):
        res = np.sqrt((p - gx) ** 2 + (q - gy) ** 2)
        mu = float(np.mean(res[interior]))
        sd = float(np.std(res[interior]))
        outlier = interior & (np.abs(res - mu) > sigma_reject * max(sd, 1e-15))
        rejected_fraction = float(outlier.sum()) / float(m.sum())
        if np.any(outlier):
            # re-integrate once without the outliers; the anchoring constant
            # is already settled, so only preserve the surviving cells' mean.
            # Rejected holes are padded with the surviving mean gradient so
            # they do not dent the transform.
            m = m & ~outlier
            p2, q2, ok2, _ = grad_field(t, m)
            pad_p = float(np.mean(p2[ok2]))
            pad_q = float(np.mean(q2[ok2]))
            z2 = integrate_gradients(np.where(ok2, p2, pad_p), np.where(ok2, q2, pad_q))
            mean_lnz = float(np.mean(np.log(t[ok2] * alpha[ok2])))
            z2 = z2 + (mean_lnz - np.mean(z2[ok2]))
            t = np.where(ok2, np.exp(z2) / alpha, t)
            m = ok2
            zhat = np.where(ok2, z2 - mean_lnz, 0.0)
            normals, ok_n = defl_normals(t, m)

    m = m & ok_n
    p, q, _, _ = grad_field(t, m)
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
