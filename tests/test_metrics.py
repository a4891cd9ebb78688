import numpy as np
import pytest

from eventscan.metrics import DegenerateFitError, fit_plane, fit_sphere, precision


def sphere_samples(rng, center, radius, n=800):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.asarray(center) + radius * v


def test_fit_sphere_exact():
    rng = np.random.default_rng(0)
    pts = sphere_samples(rng, [3.0, -2.0, 600.0], 25.4)
    fit = fit_sphere(pts)
    assert abs(fit.radius - 25.4) < 1e-9
    assert np.allclose(fit.center, [3, -2, 600], atol=1e-9)
    assert fit.rmse < 1e-9


def test_fit_sphere_noisy_monte_carlo():
    # oracle: average recovery over repeated draws with sigma = 0.1 mm noise
    rng = np.random.default_rng(1)
    radii = []
    rmses = []
    for _ in range(10):
        pts = sphere_samples(rng, [0.0, 0.0, 600.0], 25.4, n=2000)
        pts = pts + rng.normal(0, 0.1, pts.shape)
        fit = fit_sphere(pts)
        radii.append(fit.radius)
        rmses.append(fit.rmse)
    assert abs(np.mean(radii) - 25.4) < 0.05
    assert abs(np.mean(rmses) - 0.1) < 0.02


def test_fit_sphere_coplanar_raises():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    with pytest.raises(DegenerateFitError):
        fit_sphere(pts)
    with pytest.raises(DegenerateFitError):
        fit_sphere(pts[:3])


def test_fit_plane_exact_and_noisy():
    rng = np.random.default_rng(2)
    n = np.array([0.2, -0.1, 1.0])
    n = n / np.linalg.norm(n)
    basis = np.linalg.svd(n[None])[2][1:]
    uv = rng.uniform(-50, 50, size=(1500, 2))
    pts = np.array([5.0, 6.0, 600.0]) + uv @ basis
    fit = fit_plane(pts)
    assert fit.rmse < 1e-9
    assert abs(abs(fit.normal @ n) - 1) < 1e-12
    noisy = pts + rng.normal(0, 0.12, pts.shape)
    fit2 = fit_plane(noisy)
    assert abs(fit2.rmse - 0.12) < 0.02


def test_fit_plane_collinear_raises():
    pts = np.stack([np.arange(5.0), np.arange(5.0) * 2, np.arange(5.0) * 3], axis=1)
    with pytest.raises(DegenerateFitError):
        fit_plane(pts)


def test_precision_matches_injected_sigma():
    # precision metric: residual standard deviation to the best fit;
    # sigma = 0.06 mm injected, per the reported sphere precision
    rng = np.random.default_rng(3)
    pts = sphere_samples(rng, [0.0, 0.0, 600.0], 25.4, n=4000)
    noisy = pts + rng.normal(0, 0.06, pts.shape)
    fit = fit_sphere(noisy)
    p = precision(noisy, fit)
    assert abs(p - 0.06) < 0.01


def test_precision_trivial_cases():
    rng = np.random.default_rng(4)
    pts = sphere_samples(rng, [0.0, 0.0, 0.0], 10.0, n=100)
    fit = fit_sphere(pts)
    assert precision(pts, fit) < 1e-9
    assert precision(pts[:1], fit) == pytest.approx(0.0, abs=1e-12)


def test_precision_equals_rmse_for_unbiased_plane_fit():
    rng = np.random.default_rng(5)
    basis = np.eye(3)[:2]
    uv = rng.uniform(-50, 50, size=(5000, 2))
    pts = uv @ basis + np.array([0.0, 0.0, 600.0])
    noisy = pts + rng.normal(0, 0.08, pts.shape) * np.array([0, 0, 1.0])
    fit = fit_plane(noisy)
    res = fit.residuals(noisy)
    assert abs(precision(noisy, fit) - np.sqrt(np.mean(res * res))) < 1e-3


def test_fits_invariant_under_rigid_motion():
    rng = np.random.default_rng(6)
    pts = sphere_samples(rng, [1.0, 2.0, 3.0], 20.0, n=500) + rng.normal(0, 0.05, (500, 3))
    fit = fit_sphere(pts)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ang = 0.7
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    t = np.array([100.0, -40.0, 9.0])
    moved = pts @ R.T + t
    fit2 = fit_sphere(moved)
    assert abs(fit2.radius - fit.radius) < 1e-9
    assert np.allclose(fit2.center, R @ fit.center + t, atol=1e-6)
    assert abs(fit2.rmse - fit.rmse) < 1e-9

    pl = fit_plane(pts[:300] * [1, 1, 0] + [0, 0, 5])
    pl2 = fit_plane((pts[:300] * [1, 1, 0] + [0, 0, 5]) @ R.T + t)
    assert abs(pl2.rmse - pl.rmse) < 1e-9


def test_classification_score_shuffled_labels_near_prior(mirror_scan):
    from eventscan import decode
    from eventscan.geometry import fundamental_from_models
    from eventscan.separate import epipolar_classify
    from eventscan.metrics import classification_score, truth_class_of
    from eventscan.separate import ClassifiedSet

    res = mirror_scan["result"]
    a = decode.assign_sweeps(res.events, mirror_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    F = fundamental_from_models(mirror_scan["camera"], mirror_scan["projector"])
    cl = epipolar_classify(corr, F, 2.0)
    rng = np.random.default_rng(7)
    shuffled = ClassifiedSet(corr, rng.permutation(cl.label), cl.epipolar_distance)
    rep = classification_score(shuffled, res.ground_truth)
    truth = truth_class_of(corr, res.ground_truth)
    prior_direct = (truth == 0).mean()
    # recall of a random permutation approximates the predicted-label prior
    pred_direct = (shuffled.label == 0).mean()
    assert abs(rep.recall_direct - pred_direct) < 0.05
    assert rep.precision_direct == pytest.approx(prior_direct, abs=0.05)
