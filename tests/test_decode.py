import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_rig, wall_object

from eventscan import decode
from eventscan.events import SWEEP_HORIZONTAL, SWEEP_VERTICAL, EventStream
from eventscan.geometry import fundamental_from_models, unit
from eventscan.scene import Material, NoiseModel, Plane, ScanSchedule, SceneObject
from eventscan.simulate import simulate_scan


def make_events(ts, xs=None, ys=None, pol=None):
    n = len(ts)
    return EventStream(
        np.asarray(ts, dtype=np.int64),
        np.zeros(n, dtype=np.int32) if xs is None else np.asarray(xs, np.int32),
        np.zeros(n, dtype=np.int32) if ys is None else np.asarray(ys, np.int32),
        np.ones(n, dtype=np.int8) if pol is None else np.asarray(pol, np.int8),
    )


SCHED = ScanSchedule(steps_per_sweep=100, sweep_duration_us=10000, recovery_us=2000)


def test_assign_window_start_is_vertical_index_zero():
    a = decode.assign_sweeps(make_events([0]), SCHED, 0, 2)
    assert a.sweep[0] == SWEEP_VERTICAL and np.floor(a.position[0]) == 0


def test_assign_horizontal_window_start():
    t = SCHED.sweep_duration_us + SCHED.recovery_us
    a = decode.assign_sweeps(make_events([t]), SCHED, 0, 2)
    assert a.sweep[0] == SWEEP_HORIZONTAL and np.floor(a.position[0]) == 0


def test_assign_recovery_and_outside_counted():
    ts = [10500, 25000, -5, 5000]  # recovery, after scan, before scan, inside
    a = decode.assign_sweeps(make_events(ts), SCHED, 0, 2)
    assert len(a) == 1 and a.sweep.tolist() == [-1, -1, -1, SWEEP_VERTICAL]
    assert np.floor(a.position[3]) == 50
    assert a.discarded_recovery == 1
    assert a.outside_window == 2


def test_assign_position_and_residual():
    # t = 2345 -> position 23.45: step 23, the fraction is the residual
    a = decode.assign_sweeps(make_events([2345]), SCHED, 0, 2)
    assert np.floor(a.position[0]) == 23
    assert abs(a.position[0] - 23.45) < 1e-12


def test_intersect_definition_and_median():
    # one pixel: vertical events around index 400 of 801, horizontal at 200
    sched = ScanSchedule(801, 80100, 5000)  # 100 us per step
    tv = [40000, 39900, 40100]  # positions 400, 399, 401
    th = [sched.sweep_start(1) + 20000]
    ev = make_events(tv + th)
    a = decode.assign_sweeps(ev, sched, 0, 2)
    corr = decode.intersect_sweeps(a)
    assert len(corr) == 1
    assert corr.projector_pixel[0, 0] == 400.0  # median rule
    assert corr.projector_pixel[0, 1] == 200.0
    assert corr.support[0] == 4
    assert corr.quality[0] == 1.0 - 2.0 / 801  # the vertical cluster spans 2 steps
    assert set(corr.events_of(0).tolist()) == {0, 1, 2, 3}


def test_median_tie_goes_to_lower():
    sched = ScanSchedule(801, 80100, 5000)
    ev = make_events([39900, 40000, sched.sweep_start(1) + 100, sched.sweep_start(1) + 200])
    corr = decode.intersect_sweeps(decode.assign_sweeps(ev, sched, 0, 2))
    assert corr.projector_pixel[0, 0] == 399.0
    assert corr.projector_pixel[0, 1] == 1.0


def test_negative_polarity_validates_and_policies_agree():
    # +1 at crossing, -1 one step later; all policies must give the same x_P
    sched = ScanSchedule(100, 10000, 2000)
    ev = make_events([4000, 4100, sched.sweep_start(1) + 7000, sched.sweep_start(1) + 7100], pol=[1, -1, 1, -1])
    for policy in ("positive", "negative", "both"):
        corr = decode.intersect_sweeps(decode.assign_sweeps(ev, sched, 0, 2), polarity_policy=policy)
        assert len(corr) == 1
        assert np.allclose(corr.projector_pixel[0], [40.0, 70.0])


def test_decode_recovers_ground_truth_indices(plane_scan):
    res = plane_scan["result"]
    sched = plane_scan["schedule"]
    a = decode.assign_sweeps(res.events, sched, 0, 2)
    assert a.events is res.events
    event_index = np.flatnonzero(a.sweep >= 0)
    gt = res.ground_truth.take(event_index)
    sweep, position = a.sweep[event_index], a.position[event_index]
    index = np.floor(position)
    pp = gt.projector_pixel[gt.path]
    pos_true = np.where(sweep == SWEEP_VERTICAL, pp[:, 0], pp[:, 1])
    onset = res.events.polarity[event_index] > 0
    # timestamp rounding moves the position by at most one microsecond
    tol = sched.steps_per_sweep / sched.sweep_duration_us * 1.0 + 1e-9
    assert np.max(np.abs(position[onset] - pos_true[onset])) <= tol
    assert np.array_equal(index[onset], gt.step[onset])


def test_decode_correspondences_match_ground_truth(plane_scan):
    res = plane_scan["result"]
    a = decode.assign_sweeps(res.events, plane_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    gt = res.ground_truth
    # ground truth per camera pixel from any one of its events
    key_ev = res.events.y.astype(np.int64) << 20 | res.events.x.astype(np.int64)
    first = {}
    for i in np.unique(key_ev, return_index=True)[1]:
        first[key_ev[i]] = gt.projector_pixel[gt.path[i]]
    key_corr = corr.camera_pixel[:, 1].astype(np.int64) << 20 | corr.camera_pixel[:, 0].astype(np.int64)
    truth = np.stack([first[k] for k in key_corr])
    err = np.abs(corr.projector_pixel - truth)
    good = (err < 0.05).all(axis=1)
    assert good.mean() > 0.999


def test_decode_time_translation_invariance(plane_scan):
    res = plane_scan["result"]
    sched = plane_scan["schedule"]
    a0 = decode.assign_sweeps(res.events, sched, 0, 2)
    shifted = EventStream(res.events.t + 7777, res.events.x, res.events.y, res.events.polarity)
    a1 = decode.assign_sweeps(shifted, sched, 7777, 2)
    assert np.array_equal(a0.sweep, a1.sweep)
    assert np.array_equal(np.floor(a0.position), np.floor(a1.position))
    assert np.allclose(a0.position, a1.position)
    c0 = decode.intersect_sweeps(a0)
    c1 = decode.intersect_sweeps(a1)
    assert np.array_equal(c0.projector_pixel, c1.projector_pixel)


def test_single_correspondence_per_pixel_on_diffuse_scene(plane_scan):
    corr = decode.intersect_sweeps(decode.assign_sweeps(plane_scan["result"].events, plane_scan["schedule"], 0, 2))
    keys = corr.camera_pixel[:, 1].astype(np.int64) << 20 | corr.camera_pixel[:, 0].astype(np.int64)
    assert len(np.unique(keys)) == len(keys)


def test_median_robust_to_single_event_jitter():
    sched = ScanSchedule(801, 80100, 5000)
    base = [39900, 40000, 40100, sched.sweep_start(1) + 20000]
    corrupted = [39900, 40000, 40100 + 300, sched.sweep_start(1) + 20000]  # +3 steps on one event
    x0 = decode.intersect_sweeps(decode.assign_sweeps(make_events(base), sched, 0, 2)).projector_pixel[0, 0]
    x1 = decode.intersect_sweeps(decode.assign_sweeps(make_events(corrupted), sched, 0, 2)).projector_pixel[0, 0]
    assert x0 == 400.0
    assert x1 == 400.0  # median unchanged by one corrupted event of three


def test_mixed_pixel_yields_cluster_cross_product():
    sched = ScanSchedule(801, 80100, 5000)
    # one pixel with two well separated vertical clusters and two horizontal
    h0 = sched.sweep_start(1)
    ev = make_events([10000, 10100, 50000, h0 + 20000, h0 + 60000])
    corr = decode.intersect_sweeps(decode.assign_sweeps(ev, sched, 0, 2))
    got = {tuple(p) for p in corr.projector_pixel.tolist()}
    assert got == {(100.0, 200.0), (100.0, 600.0), (500.0, 200.0), (500.0, 600.0)}


def test_empty_stream_gives_empty_result():
    a = decode.assign_sweeps(EventStream.empty(), SCHED, 0, 2)
    assert len(a) == 0
    corr = decode.intersect_sweeps(a)
    assert len(corr) == 0


def test_single_sweep_epipolar_decoding():
    camera, projector = small_rig(cam_px=320)
    sched = ScanSchedule(801, 120000, 5000)
    res = simulate_scan([wall_object()], camera, projector, sched, mode="single")
    a = decode.assign_sweeps(res.events, sched, 0, n_sweeps=1)
    F = fundamental_from_models(camera, projector)
    corr = decode.intersect_single_sweep(a, F)
    assert len(corr) > 0.9 * 320 * 320
    gt = res.ground_truth
    key_ev = res.events.y.astype(np.int64) << 20 | res.events.x.astype(np.int64)
    first = {}
    for i in np.unique(key_ev, return_index=True)[1]:
        first[key_ev[i]] = gt.projector_pixel[gt.path[i]]
    key_corr = corr.camera_pixel[:, 1].astype(np.int64) << 20 | corr.camera_pixel[:, 0].astype(np.int64)
    truth = np.stack([first[k] for k in key_corr])
    # y_P comes from the epipolar constraint and is accurate to sub-pixel
    assert np.percentile(np.abs(corr.projector_pixel[:, 1] - truth[:, 1]), 99) < 0.5


@settings(max_examples=12, deadline=None)
@given(
    steps=st.integers(41, 201),
    cam_px=st.integers(48, 128),
    tilt=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    depth=st.floats(450.0, 750.0),
    sweep_us=st.integers(2000, 60000),
    recovery_us=st.integers(0, 5000),
    mode=st.sampled_from(["dual", "single"]),
)
def test_decode_lands_within_timestamp_rounding_of_truth(steps, cam_px, tilt, depth, sweep_us, recovery_us, mode):
    camera, projector = small_rig(steps=steps, cam_px=cam_px)
    normal = unit([np.sin(tilt[0]), np.sin(tilt[1]), -1.0])
    plane = SceneObject(Plane([0.0, 0.0, depth], normal, [2000.0, 2000.0]), Material("diffuse", 0.9), "wall")
    sched = ScanSchedule(steps, sweep_us, recovery_us)
    res = simulate_scan([plane], camera, projector, sched, NoiseModel(timestamp_jitter_sigma_us=0.0), mode=mode)
    a = decode.assign_sweeps(res.events, sched, 0, 2 if mode == "dual" else 1)
    if mode == "dual":
        corr = decode.intersect_sweeps(a)
    else:
        corr = decode.intersect_single_sweep(a, fundamental_from_models(camera, projector))
    assert len(corr) > 0
    # every supporting event's light path, against its correspondence
    owner = np.repeat(np.arange(len(corr)), np.diff(corr.event_offsets))
    truth = res.ground_truth.projector_pixel[res.ground_truth.path[corr.event_ids]]
    # a crossing time is rounded to the microsecond: half a microsecond of sweep
    assert np.abs(corr.projector_pixel[owner] - truth).max() <= 0.5 * steps / sweep_us + 1e-9


# scan at 5000 us: sweeps [5000, 15000) and [17000, 27000), each followed by 2000 us of recovery
RANDOM_SCHED = ScanSchedule(100, 10000, 2000, 5000)
IN_WINDOW = st.one_of(st.integers(5000, 14999), st.integers(17000, 26999))
IN_RECOVERY = st.one_of(st.integers(15000, 16999), st.integers(27000, 28999))
OUTSIDE = st.one_of(st.integers(0, 4999), st.integers(29000, 40000))


def event_rows(times):
    return st.lists(st.tuples(times, st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, 1, -1])), max_size=40)


def events_of(rows):
    return make_events(*zip(*rows)) if rows else EventStream.empty()


@settings(max_examples=60, deadline=None)
@given(
    rows=event_rows(IN_WINDOW),
    recovery=event_rows(IN_RECOVERY),
    outside=event_rows(OUTSIDE),
    policy=st.sampled_from(["positive", "negative", "both"]),
)
def test_stray_events_change_no_correspondence(rows, recovery, outside, policy):
    rows = sorted(rows)
    all_rows = rows + recovery + outside
    order = np.argsort([r[0] for r in all_rows], kind="stable")  # event i of the stream is all_rows[order[i]]
    base = events_of(rows)
    stream = events_of([all_rows[i] for i in order])
    a_base = decode.assign_sweeps(base, RANDOM_SCHED, 5000, 2)
    a = decode.assign_sweeps(stream, RANDOM_SCHED, 5000, 2)
    assert a.events is stream and a_base.events is base
    assert len(a) == len(a_base) == len(rows)
    assert (a.discarded_recovery, a.outside_window) == (len(recovery), len(outside))
    F = fundamental_from_models(*small_rig(steps=100, cam_px=8))
    for intersect in (decode.intersect_sweeps, lambda a, policy: decode.intersect_single_sweep(a, F, policy)):
        want = intersect(a_base, policy)
        got = intersect(a, policy)
        for name in ("camera_pixel", "projector_pixel", "support", "quality", "event_offsets"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(order[got.event_ids], want.event_ids)
