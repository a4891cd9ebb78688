from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENES, small_rig, tilted_mirror, wall_object

from eventscan import simulate
from eventscan.events import SWEEP_HORIZONTAL, SWEEP_VERTICAL
from eventscan.geometry import (
    PinholeModel,
    epipolar_distances,
    fundamental_from_models,
    pixel_directions,
    project_points,
    reflect_direction,
    unit,
)
from eventscan.scene import Material, NoiseModel, Plane, ScanSchedule, SceneObject, Sphere, load_scene
from eventscan.simulate import intersect_ray_batch, simulate_scan


# --- reflect_direction -----------------------------------------------------

def test_reflect_retroreflection():
    out = reflect_direction(np.array([[0.0, 0, -1]]), np.array([[0.0, 0, 1]]))
    assert np.allclose(out, [[0, 0, 1]])


def test_reflect_45_degrees():
    d = unit(np.array([1.0, 0.0, -1.0]))
    out = reflect_direction(d[None], np.array([[0.0, 0, 1]]))
    assert np.allclose(out, unit(np.array([1.0, 0.0, 1.0]))[None])


def test_reflect_angle_preserved():
    rng = np.random.default_rng(0)
    n = unit(rng.normal(size=(200, 3)))
    d = unit(rng.normal(size=(200, 3)))
    out = reflect_direction(d, n)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(np.sum(d * n, axis=1) + np.sum(out * n, axis=1)) < 1e-12)


def test_reflect_grazing_degenerate():
    # a ray parallel to the surface has no normal component to flip
    d = np.array([[1.0, 0, 0]])
    assert np.array_equal(reflect_direction(d, np.array([[0.0, 0, 1.0]])), d)


# --- intersect_ray_batch -----------------------------------------------------

def test_intersect_sphere_on_axis():
    scene = [SceneObject(Sphere([0.0, 0, 100], 10.0), Material("diffuse", 0.9), "s")]
    t, normals, obj = intersect_ray_batch(np.zeros((1, 3)), np.array([[0.0, 0, 1]]), scene)
    assert obj[0] == 0
    assert np.allclose(t[0] * np.array([0.0, 0, 1]), [0, 0, 90])
    assert np.allclose(normals[0], [0, 0, -1])


def test_intersect_parallel_plane_misses():
    scene = [SceneObject(Plane([0.0, 0, 10], [0.0, 0, 1], [5.0, 5.0]), Material("diffuse", 0.9), "p")]
    t, _, obj = intersect_ray_batch(np.zeros((1, 3)), np.array([[1.0, 0, 0]]), scene)
    assert obj[0] == -1 and np.isinf(t[0])


def test_intersect_nearest_of_two_objects():
    scene = [
        SceneObject(Plane([0.0, 0, 200], [0.0, 0, -1], [50.0, 50.0]), Material("diffuse", 0.9), "far"),
        SceneObject(Sphere([0.0, 0, 100], 10.0), Material("diffuse", 0.9), "near"),
    ]
    _, _, obj = intersect_ray_batch(np.zeros((1, 3)), np.array([[0.0, 0, 1]]), scene)
    assert scene[obj[0]].label == "near"


# --- per-object culling ------------------------------------------------------

MATTE = Material("diffuse", 0.9)


def random_device(rng, k1):
    axis = unit(rng.normal(size=3))
    angle = rng.uniform(0.0, 0.4)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K
    return PinholeModel(fx=60.0, fy=55.0, cx=23.5, cy=19.5, width=48, height=40, skew=0.5, k1=k1,
                        rotation=R, translation=rng.uniform(-20.0, 20.0, 3))


def random_object(rng, model, straddle):
    """A plane or sphere at a random pose in front of ``model``, or across its image plane."""
    depth = rng.uniform(-60.0, 60.0) if straddle else rng.uniform(80.0, 900.0)
    ray = pixel_directions(model, rng.uniform([-20.0, -20.0], [68.0, 60.0])[None])[0]
    center = model.center + depth * ray
    if rng.random() < 0.5:
        return SceneObject(Plane(center, rng.normal(size=3), rng.uniform(1.0, 150.0, 2)), MATTE, "plane")
    return SceneObject(Sphere(center, rng.uniform(0.5, 90.0)), MATTE, "sphere")


def pixel_sphere(model, pixel, depth=300.0, px_radius=0.2):
    """A sphere on the ray through ``pixel``, ``px_radius`` pixels wide as seen from ``model``."""
    ray = pixel_directions(model, np.array([pixel], dtype=float))[0]
    return SceneObject(Sphere(model.center + depth * ray, px_radius * depth / model.fx), MATTE, "speck")


def assert_same_cast(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k1=st.sampled_from([0.0, 0.0, -0.3]), n_objects=st.integers(1, 4),
       straddle=st.booleans(), lone=st.booleans(), n_points=st.integers(1, 40))
def test_culled_cast_matches_every_ray_against_every_object(seed, k1, n_objects, straddle, lone, n_points):
    # the grid cast and the sight test give the same t, normals and object,
    # bit for bit, with and without culling
    rng = np.random.default_rng(seed)
    model = random_device(rng, k1)
    objects = [random_object(rng, model, straddle and i == 0) for i in range(n_objects)]
    if lone:
        # one sphere only the ray of pixel (17, 9) meets, and one whose box
        # leaves only pixel (0, 0) a candidate, a lone row widened to two
        objects += [pixel_sphere(model, (17, 9)), pixel_sphere(model, (-0.8, -0.8))]
    pixels = simulate._pixel_grid(model)
    dirs = pixel_directions(model, pixels)
    origins = np.broadcast_to(model.center, dirs.shape)
    candidates = simulate._candidates(model, pixels, objects)
    assert_same_cast(simulate._cast(origins, dirs, objects, candidates), intersect_ray_batch(origins, dirs, objects))
    if lone and k1 == 0:
        assert candidates[-1].tolist() == [0, 1]
        assert (intersect_ray_batch(origins, dirs, objects[-2:-1])[2] == 0).sum() == 1

    # the sight test's rays run to points; the camera side snaps their pixels
    points = model.center + rng.uniform(1.0, 900.0, (n_points, 1)) * pixel_directions(
        model, rng.uniform([-2.0, -2.0], [50.0, 42.0], (n_points, 2)))
    px, _ = project_points(model, points)
    px = np.floor(px + 0.5).astype(np.int64) if rng.random() < 0.5 else px
    diff = points - model.center
    dirs = diff / np.linalg.norm(diff, axis=1)[:, None]
    origins = np.broadcast_to(model.center, dirs.shape)
    got = simulate._cast(origins, dirs, objects, simulate._candidates(model, px, objects))
    assert_same_cast(got, intersect_ray_batch(origins, dirs, objects))


def test_cull_tests_every_ray_against_an_object_across_the_image_plane():
    # a sliver from (0.5, 0, 1) mm to (-0.2, 0, -0.001) mm crosses the
    # camera's plane: its corners behind the camera bound nothing, and the
    # rays of pixels left of x = 11 still meet it
    model = PinholeModel(fx=60.0, fy=60.0, cx=23.5, cy=19.5, width=48, height=40)
    front, behind = np.array([0.5, 0.0, 1.0]), np.array([-0.2, 0.0, -0.001])
    along = behind - front
    plane = Plane((front + behind) / 2, [-along[2], 0.0, along[0]], [np.linalg.norm(along) / 2, 0.05])
    sliver = SceneObject(plane, MATTE, "sliver")
    pixels = simulate._pixel_grid(model)
    dirs = pixel_directions(model, pixels)
    origins = np.broadcast_to(model.center, dirs.shape)
    want = intersect_ray_batch(origins, dirs, [sliver])
    assert np.any((want[2] == 0) & (pixels[:, 0] < 11))
    assert_same_cast(simulate._cast(origins, dirs, [sliver], simulate._candidates(model, pixels, [sliver])), want)


def test_camera_grid_cast_tests_the_mirror_with_few_rays():
    # on plane_mirror.scene the 16 mm mirror projects to a small part of the
    # camera image: the grid cast intersects it with under 10 % of the rays
    scene = load_scene(SCENES / "plane_mirror.scene")
    mirror = next(o.shape for o in scene.objects if o.label == "mirror")
    rows = {}
    real = simulate._intersect_plane

    def spy(origins, dirs, plane):
        rows[id(plane)] = len(dirs)
        return real(origins, dirs, plane)

    with mock.patch.object(simulate, "_intersect_plane", spy):
        pixels, _, _, _, obj = simulate._grid_hits(scene.camera, scene.objects)
    assert rows[id(mirror)] < 0.1 * len(pixels)
    assert (obj == [o.shape for o in scene.objects].index(mirror)).sum() > 0


# --- simulate_scan ---------------------------------------------------------

def test_plane_scene_one_pair_per_sweep(plane_scan):
    res = plane_scan["result"]
    gt = res.ground_truth
    assert (gt.bounce == 1).all()
    ev = res.events
    # per camera pixel and sweep: exactly one +1 and one -1
    key = (ev.y.astype(np.int64) * 4096 + ev.x) * 4 + gt.sweep.astype(np.int64) * 2 + (ev.polarity > 0)
    _, counts = np.unique(key, return_counts=True)
    assert (counts == 1).all()
    n_pix = len(np.unique(ev.y.astype(np.int64) * 4096 + ev.x))
    assert len(ev) == 4 * n_pix


def test_plane_events_sorted_and_deterministic(plane_scan):
    from eventscan.simulate import simulate_scan

    res = plane_scan["result"]
    ev = res.events
    assert np.array_equal(np.lexsort((ev.polarity, ev.x, ev.y, ev.t)), np.arange(len(ev)))
    res2 = simulate_scan(plane_scan["objects"], plane_scan["camera"], plane_scan["projector"], plane_scan["schedule"])
    assert np.array_equal(res.events.t, res2.events.t)
    assert np.array_equal(res.events.x, res2.events.x)
    assert np.array_equal(res2.ground_truth.projector_pixel, res.ground_truth.projector_pixel, equal_nan=True)


def test_bounce1_events_satisfy_epipolar_constraint(plane_scan):
    res = plane_scan["result"]
    F = fundamental_from_models(plane_scan["camera"], plane_scan["projector"])
    gt = res.ground_truth
    sel = gt.bounce[gt.path] == 1
    d = epipolar_distances(F, gt.projector_pixel[gt.path[sel]], np.stack([res.events.x[sel], res.events.y[sel]], 1).astype(float))
    assert d.max() < 0.5


def test_mirror_two_bounce_annotations(mirror_scan):
    res = mirror_scan["result"]
    gt = res.ground_truth
    b2 = gt.bounce[gt.path] == 2
    assert b2.sum() > 1000
    b2 = gt.path[b2]
    # two-bounce events appear at mirror pixels, annotated with the first
    # (diffuse) bounce point, which lies on the wall plane z=600
    assert np.allclose(gt.surface_point[b2][:, 2], 600.0, atol=1e-6)
    labels = np.array(gt.labels)
    assert set(labels[gt.object_label[b2]]) == {"mirror"}


def test_mirror_timestamps_match_screen_crossings(mirror_scan):
    # analytic oracle: the two-bounce event time equals the sweep crossing of
    # the mirrored diffuse point's projector coordinate
    res = mirror_scan["result"]
    sched = mirror_scan["schedule"]
    gt = res.ground_truth
    b2 = (gt.bounce[gt.path] == 2) & (res.events.polarity > 0)
    pos = gt.projector_pixel[gt.path[b2]]
    t_v = sched.step_time(SWEEP_VERTICAL, pos[:, 0])
    t_h = sched.step_time(SWEEP_HORIZONTAL, pos[:, 1])
    t = res.events.t[b2]
    matches_v = t == t_v
    matches_h = t == t_h
    assert np.all(matches_v | matches_h)


def test_mirror_two_bounce_mostly_off_epipolar():
    # randomized mirror tilts: generically > 95% of two-bounce events sit
    # more than 2 px off their epipolar line; exceptions are annotated
    rng = np.random.default_rng(3)
    camera, projector = small_rig(steps=401)
    F = fundamental_from_models(camera, projector)
    off_frac = []
    for trial in range(3):
        target = np.array([rng.uniform(-80, -10), rng.uniform(30, 90), 600.0])
        mirror, _ = tilted_mirror(target=target)
        res = simulate_scan([wall_object(), mirror], camera, projector, ScanSchedule(401, 60000, 5000))
        gt = res.ground_truth
        b2 = gt.bounce[gt.path] >= 2
        d = epipolar_distances(
            F, gt.projector_pixel[gt.path[b2]], np.stack([res.events.x[b2], res.events.y[b2]], 1).astype(float)
        )
        off_frac.append(np.mean(d > 2.0))
        assert np.array_equal(gt.on_epipolar[gt.path[b2]], d <= 2.0)
    assert min(off_frac) > 0.95


def test_shiny_surface_emits_both_channels():
    camera, projector = small_rig(steps=401)
    bowl, _ = tilted_mirror(kind="shiny")
    res = simulate_scan([wall_object(), bowl], camera, projector, ScanSchedule(401, 60000, 5000))
    bounce = res.ground_truth.bounce[res.ground_truth.path]
    b1_pix = set(zip(res.events.x[bounce == 1].tolist(), res.events.y[bounce == 1].tolist()))
    b2_pix = set(zip(res.events.x[bounce == 2].tolist(), res.events.y[bounce == 2].tolist()))
    assert len(b1_pix & b2_pix) > 500  # mixed pixels exist


def test_event_count_scales_linearly_with_steps():
    counts = []
    for steps in (101, 201, 401):
        camera, projector = small_rig(steps=steps, cam_px=160)
        res = simulate_scan([wall_object()], camera, projector, ScanSchedule(steps, 30000, 3000))
        counts.append(len(res.events))
    # event count tracks camera pixels, not steps^2: constant here
    assert max(counts) - min(counts) <= 0.02 * max(counts)


def test_distinct_projector_timestamps_dual_vs_raster():
    n_dual = {}
    n_raster = {}
    for steps in (101, 401):
        camera, projector = small_rig(steps=steps, cam_px=160)
        sched = ScanSchedule(steps, 30000, 3000)
        dual = simulate_scan([wall_object()], camera, projector, sched)
        raster = simulate_scan([wall_object()], camera, projector, sched, mode="raster")
        n_dual[steps] = len(np.unique(dual.ground_truth.step_time_us(sched)))
        n_raster[steps] = len(np.unique(raster.ground_truth.step_time_us(sched)))
        assert n_dual[steps] <= 2 * steps
        assert n_raster[steps] <= steps * steps
        assert n_raster[steps] > n_dual[steps]
        # a full raster takes steps^2 dwell intervals versus 2 x steps sweeps
        assert raster.scan_span_us == int(round(steps * sched.sweep_duration_us))
        assert dual.scan_span_us == 2 * (sched.sweep_duration_us + sched.recovery_us)
    # distinct projector timestamps grow linearly with steps for the dual
    # scan and quadratically for the explicit raster
    dual_growth = n_dual[401] / n_dual[101]
    raster_growth = n_raster[401] / n_raster[101]
    assert 2.0 < dual_growth < 8.0
    assert 8.0 < raster_growth < 32.0


def test_higher_bounce_generation_flag():
    camera, projector = small_rig(steps=201)
    mirror, _ = tilted_mirror()
    sched = ScanSchedule(201, 30000, 3000)
    off = simulate_scan([wall_object(), mirror], camera, projector, sched)
    on = simulate_scan([wall_object(), mirror], camera, projector, sched, generate_higher_bounces=True)
    assert off.counts["higher_bounce_pairs"] == 0
    assert on.counts["higher_bounce_pairs"] > 0
    extra = len(on.events) - len(off.events)
    assert extra == 4 * on.counts["higher_bounce_pairs"] / 2  # pairs counted per sweep
    wall, mirror_label = (on.ground_truth.labels.index(name) for name in ("wall", "mirror"))
    # camera-first rows carry the mirror's label; one flat mirror cannot
    # chain, so the flag leaves them unchanged
    off_path = off.ground_truth.path
    off_multi = off.ground_truth.bounce[off_path] >= 2
    assert off_multi.any()
    assert np.all(off.ground_truth.object_label[off_path[off_multi]] == mirror_label)
    gt = on.ground_truth
    bounce, label = gt.bounce[gt.path], gt.object_label[gt.path]
    assert ((bounce >= 2) & (label == mirror_label)).sum() == off_multi.sum()
    # specular-first rows are bounce 2, labelled with the wall the laser lands
    # on after the mirror, and annotated with the laser's integer projector pixel
    specular_first = (bounce >= 2) & (label == wall)
    assert specular_first.sum() == extra
    assert np.all(bounce[specular_first] == 2)
    pp = gt.projector_pixel[gt.path[specular_first]]
    assert np.array_equal(pp, np.round(pp))


def test_specular_first_paths_start_on_shiny_surfaces():
    # a shiny patch mirrors the laser onto the wall as well as scattering it
    camera, projector = small_rig(steps=201)
    shiny, _ = tilted_mirror(kind="shiny")
    objects = [wall_object(), shiny]
    res = simulate_scan(objects, camera, projector, ScanSchedule(201, 30000, 3000), generate_higher_bounces=True)
    gt = res.ground_truth
    specular_first = (gt.bounce == 2) & (gt.object_label == gt.labels.index("wall"))
    assert specular_first.sum() > 0
    assert np.isin(np.flatnonzero(specular_first), gt.path).all()
    dirs = pixel_directions(projector, gt.projector_pixel[specular_first])
    _, _, first_hit = intersect_ray_batch(np.broadcast_to(projector.center, dirs.shape), dirs, objects)
    assert np.all(first_hit == objects.index(shiny))


def test_two_mirror_chain_bounce_three():
    camera, projector = small_rig(steps=201)
    m1c = np.array([60.0, 0.0, 500.0])
    m2c = np.array([-60.0, 0.0, 560.0])
    m1, _ = tilted_mirror(center=m1c, target=m2c, extent=18.0)
    # second mirror oriented for light arriving from the first one
    n2 = unit(unit(np.array([0.0, 80.0, 600.0]) - m2c) - unit(m2c - m1c))
    m2 = SceneObject(Plane(m2c, n2, [30.0, 30.0]), Material("specular", 0.0, 1.0), "m2")
    res = simulate_scan(
        [wall_object(), m1, m2], camera, projector, ScanSchedule(201, 30000, 3000), generate_higher_bounces=True
    )
    assert (res.ground_truth.bounce >= 3).sum() > 0


def test_light_paths_come_in_tracer_order():
    # ground truth's path ids follow the emission order, which the event
    # bytes rest on: camera-side bounces 1, 2, 3, 4, then specular-first
    # bounces 2, 3, 4, each group in its source grid's row-major order. Two
    # facing mirrors tilted 12 degrees off the view axis give every group.
    camera, projector = small_rig(steps=201, cam_px=160, cam_f=480.0)
    phi = np.radians(12.0)
    n = np.array([np.cos(phi), 0.0, -np.sin(phi)])
    corridor = [
        SceneObject(Plane(np.array([0.0, 0.0, 480.0]) + s * 10.0 * n, -s * n, [80.0, 80.0]), Material("specular", 0.0, 1.0), f"m{s}")
        for s in (-1, 1)
    ]
    sched = ScanSchedule(201, 30000, 3000)
    res = simulate_scan([wall_object(), *corridor], camera, projector, sched, generate_higher_bounces=True)
    gt = res.ground_truth
    paths, first_event = np.unique(gt.path, return_index=True)
    assert np.array_equal(paths, np.arange(len(gt.bounce)))
    # camera-side paths beyond bounce 1 carry the mirror the camera sees,
    # specular-first ones the wall the laser lands on
    specular_first = (gt.bounce > 1) & (gt.object_label == gt.labels.index("wall"))
    group = gt.bounce + 3 * specular_first
    assert np.array_equal(np.unique(group), np.arange(1, 8))
    assert np.all(np.diff(group) >= 0)
    cam_index = res.events.y[first_event] * camera.width + res.events.x[first_event]
    pp = gt.projector_pixel
    grid_index = np.where(specular_first, pp[:, 1] * projector.width + pp[:, 0], cam_index)
    same_group = group[1:] == group[:-1]
    assert np.all(np.diff(grid_index)[same_group] > 0)
    sizes = np.bincount(group, minlength=8)
    assert res.counts["direct_pairs"] == 2 * sizes[1]
    assert res.counts["two_bounce_pairs"] == 2 * sizes[2]
    assert res.counts["higher_bounce_pairs"] == 2 * sizes[3:].sum()

    # a raster holds one projector pixel per step: its paths come in pixel
    # order, and each event's step is its pixel's grid index
    raster = simulate_scan([wall_object(), *corridor], camera, projector, sched, mode="raster")
    gt = raster.ground_truth
    assert np.all(gt.bounce == 1)
    pp = gt.projector_pixel
    grid_index = pp[:, 1] * projector.width + pp[:, 0]
    assert np.array_equal(grid_index, np.round(grid_index))
    assert np.all(np.diff(grid_index) > 0)
    assert np.array_equal(gt.step, grid_index[gt.path])
    assert raster.counts["direct_pairs"] == len(gt.bounce)


def test_noise_model_determinism_and_counts():
    camera, projector = small_rig(steps=201, cam_px=160)
    sched = ScanSchedule(201, 30000, 3000)
    noise = NoiseModel(timestamp_jitter_sigma_us=30.0, spurious_rate=0.002, drop_probability=0.1, seed=9)
    r1 = simulate_scan([wall_object()], camera, projector, sched, noise)
    r2 = simulate_scan([wall_object()], camera, projector, sched, noise)
    assert np.array_equal(r1.events.t, r2.events.t)
    assert np.array_equal(r1.events.x, r2.events.x)
    assert r1.counts["dropped"] > 0 and r1.counts["spurious"] > 0
    assert (r1.ground_truth.per_event("bounce") == 0).sum() == r1.counts["spurious"]
    clean = simulate_scan([wall_object()], camera, projector, sched)
    expected = len(clean.events) - r1.counts["dropped"] + r1.counts["spurious"]
    assert len(r1.events) == expected


def test_jitter_beyond_the_int64_clock_is_refused():
    # a normal draw this wide does not fit an int64 microsecond counter; the
    # cast would turn every time into -2**63
    camera, projector = small_rig(steps=101, cam_px=64)
    noise = NoiseModel(timestamp_jitter_sigma_us=1e300)
    with pytest.raises(ValueError, match="timestamp jitter 1e\\+300 us"):
        simulate_scan([wall_object()], camera, projector, ScanSchedule(101, 10000, 1000), noise)


def test_empty_illumination_warns_not_raises():
    camera, projector = small_rig(steps=101, cam_px=64)
    # plane behind the rig: nothing visible
    back = SceneObject(Plane([0.0, 0, -500.0], [0.0, 0, 1.0], [50.0, 50.0]), Material("diffuse", 0.9), "b")
    res = simulate_scan([back], camera, projector, ScanSchedule(101, 10000, 1000))
    assert len(res.events) == 0
    assert res.warnings


def test_projector_pixelation_must_match_steps():
    camera, projector = small_rig(steps=801)
    with pytest.raises(ValueError):
        simulate_scan([wall_object()], camera, projector, ScanSchedule(401, 30000, 3000))


def test_occlusion_shadows_are_respected(mirror_scan):
    # wall points behind the mirror (as seen from the projector) are shadowed
    # and must not emit direct events
    res = mirror_scan["result"]
    gt = res.ground_truth
    projector = mirror_scan["projector"]
    mirror_obj = mirror_scan["objects"][1]
    b1 = gt.bounce == 1
    pts = gt.surface_point[b1]
    wall_pts = pts[np.abs(pts[:, 2] - 600.0) < 1e-6]
    center = projector.center
    dirs = wall_pts - center
    dist = np.linalg.norm(dirs, axis=1)
    t, _, obj = intersect_ray_batch(np.broadcast_to(center, dirs.shape), dirs / dist[:, None], [mirror_obj])
    assert not np.any(t < dist - 1e-6)
