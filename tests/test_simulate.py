import numpy as np
import pytest

from conftest import small_rig, tilted_mirror, wall_object

from eventscan.events import SWEEP_HORIZONTAL, SWEEP_VERTICAL
from eventscan.geometry import epipolar_distances, fundamental_from_models, pixel_directions, reflect_direction, unit
from eventscan.scene import Material, NoiseModel, Plane, ScanSchedule, SceneObject, Sphere
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
    t_v = sched.crossing_time(SWEEP_VERTICAL, pos[:, 0])
    t_h = sched.crossing_time(SWEEP_HORIZONTAL, pos[:, 1])
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
