import re

import numpy as np
import pytest

from eventscan import decode, formats
from eventscan.decode import CorrespondenceSet
from eventscan.geometry import fundamental_from_models, rigid_transform_model, unit
from eventscan.metrics import fit_sphere
from eventscan.scene import Material, ScanSchedule, SceneObject, Sphere
from eventscan.separate import ClassifiedSet, epipolar_classify, resolve_mixed_pixels
from eventscan.simulate import simulate_scan
from eventscan.triangulate import SCREEN_COLUMNS, DiffuseCloud, build_virtual_screen, triangulate_direct

from conftest import small_rig


def classify_all_direct(corr):
    return ClassifiedSet(corr, np.zeros(len(corr), dtype=np.int8), np.zeros(len(corr)))


@pytest.fixture(scope="module")
def plane_cloud(plane_scan):
    a = decode.assign_sweeps(plane_scan["result"].events, plane_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    F = fundamental_from_models(plane_scan["camera"], plane_scan["projector"])
    cl = resolve_mixed_pixels(epipolar_classify(corr, F, 2.0))
    return triangulate_direct(cl, plane_scan["camera"], plane_scan["projector"], gap_max_mm=1.0)


def test_plane_points_lie_on_plane(plane_cloud):
    # analytic oracle: the scene plane is z = 600
    err = np.abs(plane_cloud.position[:, 2] - 600.0)
    assert np.sqrt(np.mean(err**2)) < 1e-2
    assert err.max() < 0.1
    assert len(plane_cloud) > 0
    assert plane_cloud.gap.max() <= 1.0


def test_sphere_scene_radius_within_half_percent():
    camera, projector = small_rig(cam_px=320, cam_f=3000.0, proj_f=3000.0 * 801 / 801)
    sched = ScanSchedule(801, 600000, 5000)
    ball = SceneObject(Sphere([0.0, 0.0, 600.0], 25.4), Material("diffuse", 0.9), "ball")
    res = simulate_scan([ball], camera, projector, sched)
    corr = decode.intersect_sweeps(decode.assign_sweeps(res.events, sched, 0, 2))
    cl = classify_all_direct(corr)
    cloud = triangulate_direct(cl, camera, projector, 1.0)
    fit = fit_sphere(cloud.position)
    assert abs(fit.radius - 25.4) / 25.4 < 0.005
    assert fit.rmse < 0.02


def test_empty_input_gives_empty_cloud():
    corr = CorrespondenceSet(np.zeros((0, 2), np.int32), np.zeros((0, 2)), np.zeros(0, np.int32), np.zeros(0))
    cloud = triangulate_direct(classify_all_direct(corr), *small_rig()[:2])
    assert len(cloud) == 0
    screen = build_virtual_screen(cloud)
    assert len(screen) == 0


def test_gap_rejection_counted():
    camera, projector = small_rig()
    # a deliberately inconsistent correspondence: camera center pixel paired
    # with a projector pixel far off the epipolar geometry of any real point
    corr = CorrespondenceSet(
        np.array([[200, 200], [200, 201]], np.int32),
        np.array([[400.0, 400.0], [400.0, 100.0]]),
        np.array([2, 2], np.int32),
        np.ones(2),
    )
    cloud = triangulate_direct(classify_all_direct(corr), camera, projector, gap_max_mm=1.0)
    assert len(cloud) + cloud.dropped_gap + cloud.dropped_unstable == 2
    assert cloud.dropped_gap >= 1


def test_cloud_is_pose_covariant(plane_scan, plane_cloud):
    rng = np.random.default_rng(0)
    axis = unit(rng.normal(size=3))
    ang = 0.4
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    t = np.array([12.0, -30.0, 7.0])
    cam2 = rigid_transform_model(plane_scan["camera"], R, t)
    proj2 = rigid_transform_model(plane_scan["projector"], R, t)
    a = decode.assign_sweeps(plane_scan["result"].events, plane_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    cloud2 = triangulate_direct(classify_all_direct(corr), cam2, proj2, 1.0)
    moved = plane_cloud.position @ R.T + t
    assert len(cloud2) == len(plane_cloud)
    assert np.max(np.linalg.norm(cloud2.position - moved, axis=1)) < 1e-9


def test_screen_collision_keeps_best_quality():
    cloud = DiffuseCloud(
        position=np.array([[0.0, 0, 600], [1.0, 0, 600]]),
        camera_pixel=np.array([[10, 10], [11, 10]], np.int32),
        projector_pixel=np.array([[400.2, 400.1], [399.8, 400.4]]),
        gap=np.array([0.1, 0.0]),
        quality=np.array([0.9, 0.5]),
    )
    screen = build_virtual_screen(cloud)
    assert len(screen) == 1
    points, found = screen.lookup_many([(400, 400)])
    assert found[0]
    assert np.allclose(points[0], [0.0, 0, 600])


def test_screen_collision_tie_breaks_on_gap():
    cloud = DiffuseCloud(
        position=np.array([[0.0, 0, 600], [1.0, 0, 600]]),
        camera_pixel=np.array([[10, 10], [11, 10]], np.int32),
        projector_pixel=np.array([[400.2, 400.1], [399.8, 400.4]]),
        gap=np.array([0.1, 0.01]),
        quality=np.array([0.9, 0.9]),
    )
    screen = build_virtual_screen(cloud)
    points, found = screen.lookup_many([(400, 400)])
    assert found[0]
    assert np.allclose(points[0], [1.0, 0, 600])


@pytest.mark.parametrize("column", ["quality", "gap"])
def test_cloud_load_refuses_nan_quality_or_gap(tmp_path, column):
    # a NaN would leave its screen pixel without a winner, so the diffuse.ply
    # the deflect stage builds its screen from refuses one, naming file and row
    cloud = DiffuseCloud(
        position=np.array([[0.0, 0, 600], [1.0, 0, 600]]),
        camera_pixel=np.array([[10, 10], [11, 10]], np.int32),
        projector_pixel=np.array([[400.2, 400.1], [399.8, 400.4]]),
        gap=np.array([0.1, 0.0]),
        quality=np.array([0.9, 0.5]),
    )
    path = tmp_path / "diffuse.ply"
    cloud.save_ply(path)
    lines = path.read_text().splitlines()
    props = [line.split()[-1] for line in lines if line.startswith("property")]
    fields = lines[-1].split()  # the second row
    fields[props.index(column)] = "nan"
    lines[-1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(formats.FormatError, match=f"{re.escape(str(path))}: row 2 has {column} nan"):
        DiffuseCloud.load_ply(path)


def test_screen_covers_ground_truth_bounce2(mirror_scan):
    # derived oracle: looking up each two-bounce event's annotated
    # first-bounce projector pixel returns the annotated wall point
    a = decode.assign_sweeps(mirror_scan["result"].events, mirror_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    F = fundamental_from_models(mirror_scan["camera"], mirror_scan["projector"])
    cl = resolve_mixed_pixels(epipolar_classify(corr, F, 2.0))
    cloud = triangulate_direct(cl, mirror_scan["camera"], mirror_scan["projector"], 1.0)
    screen = build_virtual_screen(cloud)
    gt = mirror_scan["result"].ground_truth
    b2 = gt.bounce == 2
    points, found = screen.lookup_many(gt.projector_pixel[b2])
    assert found.all()
    d = np.linalg.norm(points - gt.surface_point[b2], axis=1)
    assert d.max() < 0.05


def test_screen_text_round_trippable(tmp_path):
    cloud = DiffuseCloud(
        position=np.array([[0.0, 0, 600], [1.0, 2, 601]]),
        camera_pixel=np.array([[10, 10], [11, 10]], np.int32),
        projector_pixel=np.array([[400.2, 400.1], [10.0, 20.0]]),
        gap=np.array([0.1, 0.0]),
        quality=np.array([0.9, 0.5]),
    )
    screen = build_virtual_screen(cloud)
    screen.save_text(tmp_path / "screen.txt")
    cols, data = formats.read_table(tmp_path / "screen.txt", SCREEN_COLUMNS)
    assert len(data[0]) == 2


def test_cloud_ply_round_trip(tmp_path, plane_cloud):
    plane_cloud.save_ply(tmp_path / "c.ply")
    back = DiffuseCloud.load_ply(tmp_path / "c.ply")
    assert np.array_equal(back.position, plane_cloud.position)
    assert np.array_equal(back.camera_pixel, plane_cloud.camera_pixel)
    assert np.array_equal(back.projector_pixel, plane_cloud.projector_pixel)


def _cloud_ply_without(path, prop):
    DiffuseCloud(
        position=np.array([[0.0, 0, 600], [1.0, 2, 601]]),
        camera_pixel=np.array([[10, 10], [11, 10]], np.int32),
        projector_pixel=np.array([[400.2, 400.1], [10.0, 20.0]]),
        gap=np.array([0.1, 0.0]),
        quality=np.array([0.9, 0.5]),
    ).save_ply(path)
    vertices, extras = formats.read_ply(path)
    kept = {name: values for name, values in extras.items() if name != prop}
    formats.write_ply(path, [formats.XYZ] + [(name, float) for name in kept], [vertices, *kept.values()])


@pytest.mark.parametrize("prop", ["gap", "quality"])
def test_cloud_ply_without_gap_or_quality_raises(tmp_path, prop):
    # these used to load silently as zeros / ones
    _cloud_ply_without(tmp_path / "c.ply", prop)
    with pytest.raises(formats.FormatError, match=rf"c\.ply: no property '{prop}'"):
        DiffuseCloud.load_ply(tmp_path / "c.ply")


def test_cloud_ply_without_camera_pixel_raises(tmp_path):
    _cloud_ply_without(tmp_path / "c.ply", "x_C")
    with pytest.raises(formats.FormatError, match=r"c\.ply: no property 'x_C'"):
        DiffuseCloud.load_ply(tmp_path / "c.ply")
