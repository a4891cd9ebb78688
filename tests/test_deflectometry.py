import numpy as np
import pytest

from eventscan.deflectometry import (
    ANCHOR_PROBES,
    ANCHOR_RANGE,
    TOL_MM,
    DeflectometryCorrespondences,
    EmptyRegionError,
    NormalMap,
    bind_screen,
    bisector_normals,
    curl_rms,
    default_init_depth,
    integrate_gradients,
    iterative_shape,
    rasterize_correspondences,
    _curl_well,
)
from eventscan.geometry import PinholeModel, pixel_directions, reflect_direction, unit
from eventscan.metrics import fit_plane, fit_sphere
from eventscan.triangulate import DiffuseCloud
from eventscan.separate import DIRECT, INDIRECT, ClassifiedSet
from eventscan.decode import CorrespondenceSet

CAM = PinholeModel(fx=1200.0, fy=1200.0, cx=200.0, cy=200.0, width=400, height=400)


def flat_mirror_binding(center=(60.0, 0.0, 500.0), target=(-40.0, 70.0, 600.0), px_range=((300, 380), (160, 240))):
    """Analytic binding for a flat mirror reflecting a z=600 wall."""
    center = np.asarray(center, float)
    n_m = unit(unit(np.asarray(target, float) - center) - unit(center))
    xs, ys = np.meshgrid(np.arange(*px_range[0]), np.arange(*px_range[1]))
    px = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    d = pixel_directions(CAM, px)
    t_true = (center @ n_m) / (d @ n_m)
    S = t_true[:, None] * d
    refl = d - 2 * (d @ n_m)[:, None] * n_m
    tq = (600.0 - S[:, 2]) / refl[:, 2]
    Q = S + tq[:, None] * refl
    binding = DeflectometryCorrespondences(px.astype(np.int32), Q, np.ones(len(px)))
    return binding, n_m, t_true


def sphere_binding(center=(0.0, 0.0, 560.0), radius=25.4, screen_z=600.0):
    center = np.asarray(center, float)
    ext = int(np.ceil(CAM.fx * radius / center[2])) + 2
    xs, ys = np.meshgrid(np.arange(200 - ext, 200 + ext), np.arange(200 - ext, 200 + ext))
    px = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    d = pixel_directions(CAM, px)
    b = d @ center
    disc = b * b - (center @ center - radius * radius)
    hit = disc > 0
    t = np.where(hit, b - np.sqrt(np.where(hit, disc, 0.0)), np.nan)
    S = t[:, None] * d
    n = (S - center) / radius
    refl = d - 2 * np.sum(d * n, axis=1, keepdims=True) * n
    tz = (screen_z - S[:, 2]) / refl[:, 2]
    Q = S + tz[:, None] * refl
    ok = hit & (tz > 1e-6) & (np.abs(Q[:, 0]) < 260) & (np.abs(Q[:, 1]) < 260)
    binding = DeflectometryCorrespondences(px[ok].astype(np.int32), Q[ok], np.ones(int(ok.sum())))
    return binding, float(np.nanmedian(t[ok]))


# --- bisector normals -------------------------------------------------------

def test_normal_retro_configuration():
    # screen point behind the camera along the axis: view and screen directions coincide
    v = np.array([[0.0, 0.0, -1.0]])
    n, ok = bisector_normals(v, v)
    assert ok[0]
    assert np.allclose(n[0], [0, 0, -1])


def test_normal_bisector_symmetry_example():
    # surface on the axis seen head-on; screen to the side so s = (-1, 0, 0)
    n, ok = bisector_normals(np.array([[0.0, 0.0, -1.0]]), np.array([[-1.0, 0.0, 0.0]]))
    assert ok[0]
    assert np.allclose(n[0], unit(np.array([-1.0, 0.0, -1.0])), atol=1e-12)


def test_normal_satisfies_mirror_law_and_swap_symmetry():
    rng = np.random.default_rng(0)
    px = rng.uniform(10, 390, (200, 2))
    d = pixel_directions(CAM, px)
    S = rng.uniform(200, 900, (200, 1)) * d
    Q = S + rng.normal(0, 120, (200, 3))
    v = -d
    s = unit(Q - S)
    n, ok = bisector_normals(v, s)
    assert ok.all()
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    # swapping view and screen directions leaves the bisector unchanged
    n_swapped, _ = bisector_normals(s, v)
    assert np.allclose(n, n_swapped, atol=1e-12)
    # reflecting the incoming screen direction about n points to the camera
    assert np.allclose(reflect_direction(-s, n), v, atol=1e-9)


def test_normal_degenerate_and_bad_inputs():
    # grazing: screen exactly opposite the view direction; only that row is flagged
    v = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
    s = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    n, ok = bisector_normals(v, s)
    assert ok.tolist() == [False, True]
    assert np.all(np.isfinite(n))


def test_flat_mirror_normals_at_true_depth():
    binding, n_m, t_true = flat_mirror_binding()
    d = pixel_directions(CAM, binding.camera_pixel.astype(float))
    S = t_true[:, None] * d
    nrm, ok = bisector_normals(-d, unit(binding.screen_point - S))
    assert ok.all()
    # cosine comparison: arccos saturates at ~1e-8 rad near unity
    assert np.abs(nrm @ n_m).min() > 1.0 - 1e-12


# --- Frankot-Chellappa ------------------------------------------------------

def test_fc_planar_field_exact():
    h, w = 96, 128
    yy, xx = np.mgrid[0:h, 0:w]
    p, q = np.full((h, w), 0.31), np.full((h, w), -0.17)
    z = integrate_gradients(p, q)
    zt = 0.31 * xx - 0.17 * yy
    zt = zt - zt.mean()
    assert np.abs(z - zt).max() / np.abs(zt).max() < 1e-9
    assert curl_rms(p, q, np.ones((h, w), bool)) < 1e-12


def test_fc_paraboloid_within_tolerance():
    h = w = 128
    yy, xx = np.mgrid[0:h, 0:w]
    c = (w - 1) / 2
    a = 4.0 / w
    zt = a * ((xx - c) ** 2 + (yy - c) ** 2) / 2
    z = integrate_gradients(a * (xx - c), a * (yy - c))
    zt0 = zt - zt.mean()
    pv = zt0.max() - zt0.min()
    assert np.abs(z - zt0).max() / pv < 1e-3


def test_fc_zero_gradients_constant():
    z = integrate_gradients(np.zeros((33, 47)), np.zeros((33, 47)))
    assert np.abs(z).max() < 1e-12


def test_fc_normal_map_interface():
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    # plane with slopes (p0, q0): normal ~ (-p0, -q0, 1)
    p0, q0 = 0.2, -0.1
    normals = unit(np.stack([np.full((h, w), -p0), np.full((h, w), -q0), np.ones((h, w))], axis=-1))
    nm = NormalMap(normals, np.ones((h, w), bool), origin=(0, 0))
    # slopes per cell of pitch 2 mm, read back from the map's normals
    pitch = 2.0
    nz = nm.normals[..., 2]
    p = -pitch * nm.normals[..., 0] / nz
    q = -pitch * nm.normals[..., 1] / nz
    z = integrate_gradients(p, q)
    zt = pitch * (p0 * xx + q0 * yy)
    zt = zt - zt.mean()
    assert np.abs(z - zt).max() < 1e-9
    assert curl_rms(p, q, nm.mask) < 1e-12


def test_fc_masked_regions_padded_and_remasked():
    h = w = 64
    p0, q0 = 0.4, -0.2
    mask = np.ones((h, w), bool)
    mask[:, :5] = False
    # cells outside the region carry a zero-gradient pad; in-region cells away
    # from the pad boundary stay accurate once re-masked and re-centred
    z = integrate_gradients(np.where(mask, p0, 0.0), np.where(mask, q0, 0.0))
    yy, xx = np.mgrid[0:h, 0:w]
    zt = p0 * xx + q0 * yy
    interior = mask.copy()
    interior[:, :20] = False
    err = z[interior] - zt[interior]
    assert np.std(err - err.mean()) < 0.2


def test_fc_error_grows_with_injected_curl():
    rng = np.random.default_rng(1)
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    zt = np.sin(xx / 9.0) * np.cos(yy / 11.0) * 4
    p = np.gradient(zt, axis=1)
    q = np.gradient(zt, axis=0)
    noise = rng.normal(size=(h, w))
    errors = []
    curls = []
    for amp in (0.0, 0.02, 0.08, 0.3):
        pc = p + amp * noise  # curl-carrying perturbation on one component
        z = integrate_gradients(pc, q)
        zt0 = zt - zt.mean()
        errors.append(np.sqrt(np.mean((z - zt0) ** 2)))
        curls.append(curl_rms(pc, q, np.ones((h, w), bool)))
    assert all(errors[i] < errors[i + 1] for i in range(len(errors) - 1))
    assert all(curls[i] < curls[i + 1] for i in range(len(curls) - 1))


# --- binding ---------------------------------------------------------------

def test_bind_screen_lookup_and_uncovered():
    from eventscan.triangulate import build_virtual_screen

    cloud = DiffuseCloud(
        position=np.array([[0.0, 0.0, 600.0]]),
        camera_pixel=np.array([[10, 10]], np.int32),
        projector_pixel=np.array([[400.0, 400.0]]),
        gap=np.zeros(1),
        quality=np.ones(1),
    )
    screen = build_virtual_screen(cloud)
    corr = CorrespondenceSet(
        np.array([[50, 50], [60, 60]], np.int32),
        np.array([[400.2, 399.9], [100.0, 100.0]]),
        np.array([2, 2], np.int32),
        np.ones(2),
    )
    cl = ClassifiedSet(corr, np.array([INDIRECT, INDIRECT], np.int8), np.array([30.0, 30.0]))
    binding = bind_screen(cl, screen)
    assert len(binding) == 1
    assert binding.uncovered == 1
    assert np.allclose(binding.screen_point[0], [0, 0, 600])


# --- iterative shape --------------------------------------------------------

def test_iterative_flat_mirror_robust_to_init():
    binding, n_m, t_true = flat_mirror_binding()
    med = float(np.median(t_true))
    for scale in (0.8, 1.0, 1.2):
        est, nm = iterative_shape(binding, CAM, init_depth=med * scale)
        assert est.converged
        assert est.iterations <= 20
        fit = fit_plane(est.points(CAM))
        ang = np.degrees(np.arccos(min(1.0, abs(fit.normal @ n_m))))
        assert ang < 0.1
        hist = est.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(3, len(hist) - 1))


def test_iterative_specular_sphere_radius_at_true_init():
    binding, med = sphere_binding()
    est, _ = iterative_shape(binding, CAM, init_depth=med)
    fit = fit_sphere(est.points(CAM))
    assert abs(fit.radius - 25.4) / 25.4 < 0.02
    assert est.rejected_fraction < 0.10


# the anchor window around a 500 mm standoff, in log depth
WINDOW = (np.log(500.0) - ANCHOR_RANGE, np.log(500.0) + ANCHOR_RANGE)


class Landscape:
    """A synthetic curl landscape that counts its evaluations."""

    def __init__(self, well):
        self.well = well
        self.calls = 0

    def __call__(self, c):
        self.calls += 1
        return 1e-6 + (c - self.well) ** 2 if self.well is not None else np.exp(-c)


def test_curl_well_bracket_keeps_a_well_that_stays_inside():
    well = np.log(510.0)
    full = Landscape(well)
    c_full = _curl_well(full, *WINDOW)
    bracketed = Landscape(well)
    c = _curl_well(bracketed, *WINDOW, near=well + 0.004)
    # the bracket alone: no coarse probe
    assert bracketed.calls < ANCHOR_PROBES < full.calls
    assert abs(np.exp(c) - np.exp(c_full)) <= TOL_MM
    assert abs(np.exp(c) - 510.0) <= TOL_MM


def test_curl_well_bracket_falls_back_when_the_well_moves_out():
    step = 2.0 * ANCHOR_RANGE / (ANCHOR_PROBES - 1)
    landscape = Landscape(np.log(510.0))
    c = _curl_well(landscape, *WINDOW, near=np.log(510.0) + 3.0 * step)
    assert landscape.calls > ANCHOR_PROBES
    assert abs(np.exp(c) - 510.0) <= TOL_MM


def test_curl_well_none_without_an_interior_well():
    assert _curl_well(Landscape(None), *WINDOW) is None
    assert _curl_well(Landscape(None), *WINDOW, near=np.log(510.0)) is None


def test_single_cell_returns_init_depth():
    binding = DeflectometryCorrespondences(
        np.array([[100, 100]], np.int32), np.array([[50.0, 0.0, 600.0]]), np.ones(1)
    )
    est, nm = iterative_shape(binding, CAM, init_depth=500.0)
    assert est.converged
    assert np.isclose(est.depth[est.mask][0], 500.0)


def test_rasterize_averages_by_quality():
    binding = DeflectometryCorrespondences(
        np.array([[10, 10], [10, 10]], np.int32),
        np.array([[0.0, 0.0, 600.0], [10.0, 0.0, 600.0]]),
        np.array([3.0, 1.0]),
    )
    screen, weight, mask, origin = rasterize_correspondences(binding)
    assert mask.shape == (1, 1)
    assert np.allclose(screen[0, 0], [2.5, 0, 600])
    with pytest.raises(EmptyRegionError):
        rasterize_correspondences(DeflectometryCorrespondences(np.zeros((0, 2), np.int32), np.zeros((0, 3)), np.zeros(0)))


def test_default_init_depth_prefers_neighbors():
    cloud = DiffuseCloud(
        position=np.stack([np.zeros(10), np.zeros(10), np.concatenate([np.full(5, 500.0), np.full(5, 900.0)])], axis=1),
        camera_pixel=np.stack([np.concatenate([np.arange(95, 100), np.arange(300, 305)]), np.full(10, 100)], axis=1).astype(np.int32),
        projector_pixel=np.zeros((10, 2)),
        gap=np.zeros(10),
        quality=np.ones(10),
    )
    binding = DeflectometryCorrespondences(np.array([[110, 100]], np.int32), np.array([[0.0, 0.0, 600.0]]), np.ones(1))
    init = default_init_depth(binding, CAM, cloud)
    assert abs(init - 500.0) < 1.0  # only the nearby half of the cloud counts


def test_normal_map_pfm(tmp_path):
    mask = np.zeros((8, 8), bool)
    mask[1:3, 1:3] = True
    mask[5:7, 5:7] = True
    normals = np.zeros((8, 8, 3))
    normals[:, :, 2] = 1.0
    nm = NormalMap(normals, mask, origin=(0, 0))
    nm.save_pfm(tmp_path / "n.pfm", tmp_path / "m.pfm")
    from eventscan import formats

    img = formats.read_pfm(tmp_path / "n.pfm")
    assert img.shape == (8, 8, 3)
    m = formats.read_pfm(tmp_path / "m.pfm")
    assert (m > 0).sum() == mask.sum()
