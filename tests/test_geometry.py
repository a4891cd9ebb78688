import numpy as np
import pytest

from eventscan.geometry import (
    DegenerateGeometryError,
    PinholeModel,
    epipolar_distances,
    fundamental_from_models,
    project_points,
    pixel_directions,
    rigid_transform_model,
    triangulate_ray_arrays,
    unit,
)


def random_model(rng, k1=0.0):
    axis = unit(rng.normal(size=3))
    angle = rng.uniform(-0.4, 0.4)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    return PinholeModel(
        fx=rng.uniform(600, 2000),
        fy=rng.uniform(600, 2000),
        cx=rng.uniform(100, 500),
        cy=rng.uniform(100, 500),
        width=640,
        height=640,
        skew=rng.uniform(-1, 1),
        rotation=R,
        translation=rng.uniform(-50, 50, size=3),
        k1=k1,
    )


def test_principal_ray():
    m = PinholeModel(fx=1, fy=1, cx=0, cy=0, width=10, height=10)
    assert np.allclose(m.center, 0)
    assert np.allclose(pixel_directions(m, np.array([[0.0, 0.0]])), [[0, 0, 1]])


def test_45_degree_pixel():
    m = PinholeModel(fx=100, fy=100, cx=0, cy=0, width=200, height=200)
    assert np.allclose(pixel_directions(m, np.array([[100.0, 0.0]]))[0], unit(np.array([1.0, 0.0, 1.0])))


def test_project_on_axis():
    m = PinholeModel(fx=500, fy=500, cx=360, cy=640, width=720, height=1280)
    px, valid = project_points(m, np.array([0.0, 0.0, 1000.0]))
    assert valid[0]
    assert np.allclose(px[0], [360, 640])


def test_project_points_flags_points_behind_center():
    m = PinholeModel(fx=500, fy=500, cx=100, cy=100, width=200, height=200)
    _, valid = project_points(m, np.array([[0.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]))
    assert valid.tolist() == [False, False, True]


def test_back_projection_round_trip_contains_point():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_model(rng)
        seed_px = np.array([rng.uniform(0, m.width), rng.uniform(0, m.height)])
        point = m.center + rng.uniform(200, 800) * pixel_directions(m, seed_px[None])[0]
        px, valid = project_points(m, point)
        assert valid[0]
        direction = pixel_directions(m, px)[0]
        # distance from the point to the ray through the optical center
        v = point - m.center
        d = np.linalg.norm(v - (v @ direction) * direction)
        assert d < 1e-6


def test_project_back_project_round_trip_bulk():
    rng = np.random.default_rng(1)
    for k1 in (0.0, 0.05, -0.08):
        m = random_model(rng, k1=k1)
        px = np.stack(
            [rng.uniform(0, m.width, size=4000), rng.uniform(0, m.height, size=4000)], axis=1
        )
        dirs = pixel_directions(m, px)
        points = m.center + dirs * rng.uniform(100, 1000, size=(4000, 1))
        back, ok = project_points(m, points)
        assert ok.all()
        assert np.max(np.linalg.norm(back - px, axis=1)) < 1e-6


def test_fundamental_rectified_pair_gives_horizontal_lines():
    cam = PinholeModel(fx=1, fy=1, cx=0, cy=0, width=10, height=10)
    proj = PinholeModel(fx=1, fy=1, cx=0, cy=0, width=10, height=10, translation=np.array([-1.0, 0, 0]))
    F = fundamental_from_models(cam, proj)
    lines = np.concatenate([np.array([[0.3, 0.7, 1.0]]) @ F.T])
    # horizontal line: zero coefficient on x
    assert abs(lines[0, 0]) < 1e-12
    assert abs(lines[0, 1]) > 0


def test_fundamental_epipolar_residual_random_rigs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cam = random_model(rng)
        proj = random_model(rng)
        F = fundamental_from_models(cam, proj)
        assert np.linalg.svd(F, compute_uv=False)[2] < 1e-8
        mid = 0.5 * (cam.center + proj.center)
        fwd = unit(cam.rotation.T @ np.array([0.0, 0.0, 1.0]) + proj.rotation.T @ np.array([0.0, 0.0, 1.0]))
        pts = mid + fwd * rng.uniform(300, 900, size=(100, 1)) + rng.normal(0, 40, size=(100, 3))
        pc, okc = project_points(cam, pts)
        pp, okp = project_points(proj, pts)
        ok = okc & okp
        if not ok.any():
            continue
        d = epipolar_distances(F, pp[ok], pc[ok])
        assert d.max() < 1e-6


def test_fundamental_zero_baseline_raises():
    cam = PinholeModel(fx=500, fy=500, cx=100, cy=100, width=200, height=200)
    with pytest.raises(DegenerateGeometryError):
        fundamental_from_models(cam, cam)


def test_triangulate_exact_intersection():
    points, gaps, _ = triangulate_ray_arrays(np.zeros(3), [0.0, 0.0, 1.0], [100.0, 0.0, 0.0], unit(np.array([-100.0, 0.0, 500.0])))
    assert np.allclose(points[0], [0, 0, 500], atol=1e-9)
    assert gaps[0] < 1e-9


def test_triangulate_known_skew_gap():
    # construct skew pairs whose mutually closest segment is known: rays
    # along x and y, separated by `off` along z
    off = np.random.default_rng(3).uniform(0.01, 5.0, 20)
    o2 = np.stack([np.full(20, -4.0), np.zeros(20), off], axis=1)
    points, gaps, _ = triangulate_ray_arrays(np.array([[0.0, -7.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]), o2, np.array([[1.0, 0.0, 0.0]]))
    assert np.all(np.abs(gaps - off) < 1e-12)
    assert np.allclose(points, np.stack([np.zeros(20), np.zeros(20), off / 2], axis=1), atol=1e-12)


def test_triangulate_parallel_flags_condition():
    # callers drop pairs by the direction cross norm, which is 0 for parallel rays
    _, _, cross_norm = triangulate_ray_arrays(np.zeros(3), [0.0, 0.0, 1.0], [5.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert cross_norm[0] <= 1e-9


def test_triangulate_symmetric():
    rng = np.random.default_rng(4)
    o1, o2 = rng.uniform(-10, 10, (2, 200, 3))
    d1, d2 = unit(rng.normal(size=(2, 200, 3)))
    p1, g1, c1 = triangulate_ray_arrays(o1, d1, o2, d2)
    p2, g2, _ = triangulate_ray_arrays(o2, d2, o1, d1)
    ok = c1 >= 1e-6
    assert ok.sum() > 190
    assert np.all(np.linalg.norm(p1 - p2, axis=1)[ok] < 1e-9)
    assert np.all(np.abs(g1 - g2)[ok] < 1e-9)


def test_model_validation():
    with pytest.raises(ValueError):
        PinholeModel(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)
    with pytest.raises(ValueError):
        PinholeModel(fx=1, fy=1, cx=9, cy=0, width=4, height=4)
    with pytest.raises(ValueError):
        PinholeModel(fx=1, fy=1, cx=0, cy=0, width=4, height=4, rotation=np.eye(3) * 2)


def test_rigid_transform_model_reprojects():
    rng = np.random.default_rng(5)
    m = random_model(rng)
    axis = unit(rng.normal(size=3))
    ang = 0.3
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    t = rng.uniform(-20, 20, 3)
    moved = rigid_transform_model(m, R, t)
    pts = m.center + rng.uniform(100, 400, (50, 1)) * pixel_directions(m, np.stack([rng.uniform(0, m.width, 50), rng.uniform(0, m.height, 50)], axis=1))
    before, _ = project_points(m, pts)
    after, _ = project_points(moved, pts @ R.T + t)
    assert np.allclose(before, after, atol=1e-8)
