"""Array kernels against the code they replaced.

Each oracle below is the implementation a kernel replaced: a per-row loop,
a hash-based set operation, a full lexsort, the per-event ground-truth
layout or the whole-column text writer, kept verbatim in behaviour. The
kernels must return the same arrays, dtype included (and the same file
bytes), on random inputs, on small simulated scans and on the edge cases
named in each test.
"""

import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_rig, tilted_mirror, wall_object
from eventscan import decode, formats, geometry, simulate
from eventscan.decode import CorrespondenceSet
from eventscan.events import SWEEP_HORIZONTAL, SWEEP_RASTER, SWEEP_VERTICAL, UNANNOTATED, EventStream, GroundTruth
from eventscan.metrics import truth_class_of
from eventscan.scene import NoiseModel, ScanSchedule
from eventscan.separate import DIRECT, INDIRECT, REJECTED, ClassifiedSet, resolve_mixed_pixels
from eventscan.triangulate import DiffuseCloud, build_virtual_screen

ORACLE = settings(max_examples=60, deadline=None)


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# --- truth_class_of -------------------------------------------------------


def truth_class_loop(correspondences, truth):
    """``truth`` holds a bounce per event (``EventTruth``, the per-event layout)."""
    out = np.full(len(correspondences), -1, dtype=np.int8)
    for i in range(len(correspondences)):
        b = truth.bounce[correspondences.events_of(i)]
        b = b[b > 0]
        if len(b) == 0:
            continue
        n1 = int((b == 1).sum())
        out[i] = DIRECT if n1 > len(b) - n1 else INDIRECT
    return out


def ground_truth(bounce):
    """Both layouts of events with these bounces (0 = spurious): (per-event, per-path)."""
    bounce = np.asarray(bounce, dtype=np.int16)
    n = len(bounce)
    annotated = bounce > 0
    m = int(annotated.sum())
    per_event = EventTruth(bounce, np.zeros((n, 3)), np.zeros(n), np.zeros((n, 2)), np.zeros(n, bool), np.zeros(n), np.zeros(n), np.zeros(n))
    per_path = GroundTruth(
        bounce[annotated], np.zeros((m, 3)), np.zeros(m), np.zeros((m, 2)), np.zeros(m, bool),
        path=np.where(annotated, np.cumsum(annotated) - 1, -1), sweep=np.zeros(n), step=np.zeros(n),
    )
    return per_event, per_path


def csr(rows, tail=()):
    """Correspondence set whose row i is supported by the event ids rows[i]."""
    n = len(rows)
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    ids = np.array([e for r in rows for e in r] + list(tail), dtype=np.int64)
    return CorrespondenceSet(np.zeros((n, 2), np.int32), np.zeros((n, 2)), np.ones(n, np.int32), np.ones(n), ids, offsets)


def test_truth_class_edge_cases():
    oracle, truth = ground_truth([0, 1, 2, 1, 0, 3])
    rows = [
        [],  # no events at all
        [0, 4],  # all spurious
        [1, 2],  # 1-vs-1 tie -> INDIRECT
        [1, 3, 2],  # direct majority
        [2, 5, 0],  # indirect majority among the annotated
    ]
    # event_ids continue past the last offset: those ids belong to no row
    corr = csr(rows, tail=[1, 1, 1])
    got = truth_class_of(corr, truth)
    assert_same(got, truth_class_loop(corr, oracle))
    assert got.tolist() == [-1, -1, INDIRECT, DIRECT, INDIRECT]


def test_truth_class_without_any_path():
    oracle, truth = ground_truth([0, 0, 0])
    corr = csr([[0, 1], [], [2]])
    assert_same(truth_class_of(corr, truth), truth_class_loop(corr, oracle))


@ORACLE
@given(
    bounce=st.lists(st.integers(0, 3), min_size=1, max_size=30),
    shape=st.lists(st.lists(st.integers(0, 10**6), max_size=6), max_size=25),
    tail=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_truth_class_matches_loop(bounce, shape, tail):
    m = len(bounce)
    rows = [[e % m for e in r] for r in shape]
    corr = csr(rows, tail=[e % m for e in tail])
    oracle, truth = ground_truth(bounce)
    assert_same(truth_class_of(corr, truth), truth_class_loop(corr, oracle))


# --- GroundTruth per light path ---------------------------------------------


@dataclass
class EventTruth:
    """The per-event ground-truth layout GroundTruth replaced: every event
    carries its full annotation, so a path's ON and OFF events in each sweep
    hold four copies of it."""

    bounce: np.ndarray
    surface_point: np.ndarray
    object_label: np.ndarray
    projector_pixel: np.ndarray
    on_epipolar: np.ndarray
    sweep: np.ndarray
    step: np.ndarray
    step_time_us: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        self.bounce = np.asarray(self.bounce, dtype=np.int16)
        self.surface_point = np.asarray(self.surface_point, dtype=np.float64).reshape(-1, 3)
        self.object_label = np.asarray(self.object_label, dtype=np.int32)
        self.projector_pixel = np.asarray(self.projector_pixel, dtype=np.float64).reshape(-1, 2)
        self.on_epipolar = np.asarray(self.on_epipolar, dtype=bool)
        self.sweep = np.asarray(self.sweep, dtype=np.int8)
        self.step = np.asarray(self.step, dtype=np.int32)
        self.step_time_us = np.asarray(self.step_time_us, dtype=np.int64)
        self.labels = tuple(self.labels)

    def take(self, order):
        return EventTruth(*(getattr(self, f.name)[order] for f in fields(self) if f.name != "labels"), self.labels)

    def concatenate(self, other):
        return EventTruth(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)]) for f in fields(self) if f.name != "labels"), self.labels)


class EventTruthEmitter:
    """simulate._Emitter's interface, copying each path's annotation onto every event."""

    def __init__(self, schedule, labels):
        self.schedule, self.labels = schedule, labels
        self.paths = []
        self.events, self.truth = [], []

    def add_paths(self, bounce, surface, label_idx, proj_pixel, on_epi):
        n = len(label_idx)
        start = sum(len(p[2]) for p in self.paths)
        self.paths.append((np.full(n, bounce), surface, label_idx, proj_pixel, on_epi))
        return np.arange(start, start + n)

    def emit(self, sweep, pixels, positions, path, raster_step=None):
        n = len(positions)
        if n == 0:
            return
        sched = self.schedule
        if sweep == SWEEP_RASTER:
            t_on, t_off = sched.step_time(0, raster_step), sched.step_time(0, raster_step + 1)
            step, step_time = raster_step, t_on
        else:
            t_on, t_off = sched.step_time(sweep, positions), sched.step_time(sweep, positions + 1.0)
            step = np.floor((t_on - sched.sweep_start(sweep)) * sched.steps_per_sweep / sched.sweep_duration_us)
            step = np.clip(step, 0, sched.steps_per_sweep - 1)
            step_time = sched.step_time(sweep, step)
        ann = [np.concatenate(c)[path] for c in zip(*self.paths)]
        for t_ev, pol in ((t_on, 1), (t_off, -1)):
            self.events.append(EventStream(t_ev, pixels[:, 0], pixels[:, 1], np.full(n, pol)))
            self.truth.append(EventTruth(*ann, np.full(n, sweep), step, step_time, self.labels))

    def result(self):
        events, truth = EventStream.empty(), EventTruth(*[np.zeros(0)] * 8, self.labels)
        for e, t in zip(self.events, self.truth):
            events = EventStream(*(np.concatenate([getattr(events, k), getattr(e, k)]) for k in ("t", "x", "y", "polarity")))
            truth = truth.concatenate(t)
        return events, truth


def event_truth_noise(stream, gt, noise, camera, span):
    """simulate._apply_noise on the per-event layout: the same draws, in the same order."""
    rng = np.random.default_rng(noise.seed)
    counts = {"dropped": 0, "spurious": 0}
    t = stream.t.astype(np.float64)
    if noise.timestamp_jitter_sigma_us > 0:
        t = t + rng.normal(0.0, noise.timestamp_jitter_sigma_us, size=len(t))
    t = np.maximum(np.floor(t + 0.5), 0.0).astype(np.int64)
    keep = np.ones(len(t), dtype=bool)
    if noise.drop_probability > 0:
        keep = rng.random(len(t)) >= noise.drop_probability
        counts["dropped"] = int((~keep).sum())
    stream = EventStream(t[keep], stream.x[keep], stream.y[keep], stream.polarity[keep])
    gt = gt.take(keep)
    if noise.spurious_rate > 0:
        t0, t1 = span
        n_spur = int(rng.poisson(noise.spurious_rate * max(t1 - t0, 1) * (camera.width * camera.height / 1e6)))
        counts["spurious"] = n_spur
        if n_spur:
            ts = rng.integers(t0, t1 + 1, size=n_spur)
            xs = rng.integers(0, camera.width, size=n_spur)
            ys = rng.integers(0, camera.height, size=n_spur)
            ps = np.where(rng.random(n_spur) < 0.5, -1, 1)
            spurious = EventStream(ts, xs, ys, ps)
            stream = EventStream(*(np.concatenate([getattr(stream, k), getattr(spurious, k)]) for k in ("t", "x", "y", "polarity")))
            none = np.full(n_spur, -1)
            gt = gt.concatenate(EventTruth(np.zeros(n_spur), np.full((n_spur, 3), np.nan), none, np.full((n_spur, 2), np.nan), np.zeros(n_spur), none, none, none))
    return stream, gt, counts


def mirror_rig():
    camera, projector = small_rig(steps=201, cam_px=160, cam_f=480.0)
    return camera, projector, ScanSchedule(201, 30000, 3000), [wall_object(), tilted_mirror()[0]]


NOISY = NoiseModel(timestamp_jitter_sigma_us=30.0, spurious_rate=0.002, drop_probability=0.1, seed=5)
SCANS = {
    "noise": (NOISY, {}),
    "higher_bounces": (None, {"generate_higher_bounces": True}),
    "raster": (NOISY, {"mode": "raster"}),
    "single": (NOISY, {"mode": "single"}),
}


@pytest.fixture(scope="module", params=sorted(SCANS))
def both_layouts(request, tmp_path_factory):
    """One small scan simulated twice: with per-path truth and with the per-event oracle."""
    camera, projector, sched, objects = mirror_rig()
    noise, kw = SCANS[request.param]
    res = simulate.simulate_scan(objects, camera, projector, sched, noise, **kw)
    mp = pytest.MonkeyPatch()
    mp.setattr(simulate, "_Emitter", EventTruthEmitter)
    mp.setattr(simulate, "_apply_noise", event_truth_noise)
    try:
        oracle = simulate.simulate_scan(objects, camera, projector, sched, noise, **kw)
    finally:
        mp.undo()
    return request.param, res, oracle, sched, tmp_path_factory.mktemp(request.param)


def test_scans_cover_every_kind_of_row(both_layouts):
    name, res, _, _, _ = both_layouts
    bounce = res.ground_truth.per_event("bounce")
    assert (bounce == 1).any()
    if name != "raster":
        assert (bounce == 2).any()
    if name == "higher_bounces":
        assert res.counts["higher_bounce_pairs"] > 0
    else:
        assert res.counts["dropped"] > 0 and (bounce == 0).sum() == res.counts["spurious"] > 0


def assert_same_bits(got, want):
    """assert_same, with floats compared on their bit patterns (NaN included)."""
    assert_same(*(a.view(np.uint64) if a.dtype == np.float64 else a for a in (np.asarray(got), np.asarray(want))))


def saved_and_loaded(truth, tmp):
    paths = tmp / "paths.txt", tmp / "path_events.txt"
    truth.save_text(*paths)
    return paths, GroundTruth.load_text(*paths)


def test_ground_truth_text_matches_per_event_oracle(both_layouts):
    scan, res, oracle, sched, tmp = both_layouts
    for name in ("t", "x", "y", "polarity"):
        assert_same(getattr(res.events, name), getattr(oracle.events, name))
    _, back = saved_and_loaded(res.ground_truth, tmp)
    # what the one-row-per-event file held: every event's annotation written out
    for name in UNANNOTATED:
        assert_same_bits(back.per_event(name), getattr(oracle.ground_truth, name))
    for name in ("sweep", "step"):
        assert_same(getattr(back, name), getattr(oracle.ground_truth, name))
    # the step time the oracle stored per event is the one the schedule gives
    assert_same(back.step_time_us(sched), oracle.ground_truth.step_time_us)
    assert back.labels == oracle.ground_truth.labels
    # each light path is held once, not once per event; counts are pairs per sweep
    pairs = sum(res.counts[k] for k in ("direct_pairs", "two_bounce_pairs", "higher_bounce_pairs"))
    assert len(res.ground_truth.bounce) == pairs // (2 if SCANS[scan][1].get("mode", "dual") == "dual" else 1)


def test_truth_class_matches_loop_on_simulated_scans(both_layouts):
    _, res, oracle, sched, _ = both_layouts
    n = len(res.events)
    rng = np.random.default_rng(0)
    corrs = [csr([rng.integers(0, n, size=rng.integers(0, 6)).tolist() for _ in range(400)])]
    corr = decode.intersect_sweeps(decode.assign_sweeps(res.events, sched, 0, 2))
    if len(corr):
        corrs.append(corr)
    for c in corrs:
        assert_same(truth_class_of(c, res.ground_truth), truth_class_loop(c, oracle.ground_truth))


def test_ground_truth_text_round_trips_to_same_bytes(both_layouts):
    name, res, _, _, tmp = both_layouts
    first, back = saved_and_loaded(res.ground_truth, tmp)
    assert back.labels == res.ground_truth.labels
    for field in fields(GroundTruth):
        if field.name != "labels":
            assert_same_bits(getattr(back, field.name), getattr(res.ground_truth, field.name))
    second = tmp / "second.txt", tmp / "second_events.txt"
    back.save_text(*second)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    if name != "higher_bounces":  # spurious events and NaN-free path rows are in the files
        assert (back.path == -1).any() and b"\n-1 -1 -1\n" in first[1].read_bytes()
        assert b"nan" not in first[0].read_bytes()


# --- EventStream.sort_order -------------------------------------------------


def assert_sorts_like_lexsort(t, x, y, p):
    ev = EventStream(t, x, y, p)
    assert_same(ev.sort_order(), np.lexsort((ev.polarity, ev.x, ev.y, ev.t)))


I64, I32 = np.iinfo(np.int64), np.iinfo(np.int32)


def test_sort_order_edge_cases():
    assert_sorts_like_lexsort([], [], [], [])
    # ties in all four keys keep their input order
    assert_sorts_like_lexsort([5] * 4 + [3] * 3, [1] * 7, [2] * 7, [1, -1, 1, -1, 1, 1, -1])
    assert_sorts_like_lexsort([-7, -7, 3, -100, 0], [4, 4, 0, 1, 1], [0, 0, 9, 9, 9], [1, 1, -1, 1, -1])
    # spans too wide to pack into 64 bits together: the lexsort fallback
    assert_sorts_like_lexsort([I64.min, I64.max, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, -1, 1, 1])
    assert_sorts_like_lexsort([0, 1 << 20, 0, 0], [I32.min, I32.max, 0, 0], [I32.max, 0, I32.min, 0], [1, 1, -1, 1])
    # negative pixel coordinates and polarities other than +-1 pack by offset
    assert_sorts_like_lexsort([2, 2, 2, 2], [-3, -3, 5, -3], [-1, -1, -1, -2], [0, -1, 1, 2])


def narrow_or_wide(lo, hi):
    return st.one_of(st.integers(-3, 3), st.integers(lo, hi))


@ORACLE
@given(
    rows=st.lists(
        st.tuples(narrow_or_wide(I64.min, I64.max), narrow_or_wide(I32.min, I32.max), narrow_or_wide(I32.min, I32.max), st.sampled_from([1, -1, 1, 0, 127, -128])),
        max_size=40,
    )
)
def test_sort_order_is_lexsort(rows):
    assert_sorts_like_lexsort(*(zip(*rows) if rows else ([], [], [], [])))


# --- build_virtual_screen / lookup_many -----------------------------------


def screen_entries_loop(cloud):
    keys = np.floor(cloud.projector_pixel + 0.5).astype(np.int64)
    entries = {}
    for row in range(len(cloud)):
        key = (int(keys[row, 0]), int(keys[row, 1]))
        old = entries.get(key)
        if old is None:
            entries[key] = row
            continue
        better = cloud.quality[row] > cloud.quality[old] or (
            cloud.quality[row] == cloud.quality[old] and cloud.gap[row] < cloud.gap[old]
        )
        if better:
            entries[key] = row
    return entries


def lookup_many_loop(entries, position, proj_pixel, projector_pixels):
    qp = np.atleast_2d(np.asarray(projector_pixels, dtype=np.float64))
    pp = np.floor(qp + 0.5).astype(np.int64)
    points = np.zeros((len(pp), 3))
    found = np.zeros(len(pp), dtype=bool)
    for i, (xk, yk) in enumerate(pp):
        row = entries.get((int(xk), int(yk)))
        if row is None:
            continue
        found[i] = True
        points[i] = position[row]
        rows = [
            r
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (r := entries.get((int(xk) + dx, int(yk) + dy))) is not None
        ]
        if len(rows) < 4:
            continue
        rel = proj_pixel[rows] - qp[i]
        A = np.concatenate([rel, np.ones((len(rows), 1))], axis=1)
        sol, *_ = np.linalg.lstsq(A, position[rows], rcond=None)
        points[i] = sol[2]
    return points, found


def make_cloud(projector_pixel, quality, gap, seed=0):
    n = len(quality)
    rng = np.random.default_rng(seed)
    return DiffuseCloud(
        position=rng.normal(size=(n, 3)),
        camera_pixel=np.zeros((n, 2), np.int32),
        projector_pixel=np.asarray(projector_pixel, dtype=np.float64).reshape(n, 2),
        gap=np.asarray(gap, dtype=np.float64),
        quality=np.asarray(quality, dtype=np.float64),
    )


def assert_lookup_matches_loop(got, want, entries, queries):
    """``found`` and every unfitted point exactly as the loop; fitted points
    (4 or more neighbourhood entries) within 1e-9 mm, because the batched
    normal equations round differently from ``lstsq``."""
    assert_same(got[1], want[1])
    centres = np.floor(np.asarray(queries) + 0.5).astype(np.int64)
    fitted = np.array(
        [sum((x + dx, y + dy) in entries for dx in (-1, 0, 1) for dy in (-1, 0, 1)) >= 4 for x, y in centres.tolist()]
    ) & want[1]
    assert got[0].dtype == want[0].dtype
    assert_same(got[0][~fitted], want[0][~fitted])
    assert np.all(np.abs(got[0][fitted] - want[0][fitted]) <= 1e-9)


def assert_screen_matches_loop(cloud):
    screen = build_virtual_screen(cloud)
    entries = screen_entries_loop(cloud)
    assert len(screen) == len(entries)
    assert_same(screen.rows, np.array([entries[k] for k in sorted(entries)], dtype=np.int64))
    return screen, entries


def test_screen_ties_and_rounding():
    cloud = make_cloud(
        [
            [0.5, -0.5],  # rounds to (1, 0)
            [1.4, 0.4],  # (1, 0): higher quality wins
            [0.6, -0.2],  # (1, 0): same quality, smaller gap wins
            [-0.5, -1.5],  # (0, -1)
            [0.49, -0.51],  # (0, -1): full tie, the earlier row stays
            [-2.5, 3.5],  # (-2, 4)
            [-1.51, 3.6],  # (-2, 4): lower quality loses
        ],
        quality=[0.5, 0.9, 0.9, 0.7, 0.7, 0.8, 0.3],
        gap=[0.1, 0.2, 0.1, 0.05, 0.05, 0.0, 0.0],
    )
    screen, _ = assert_screen_matches_loop(cloud)
    assert screen.rows.tolist() == [5, 3, 2]


@ORACLE
@given(
    cells=st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.integers(-4, 4),
            st.sampled_from([-0.5, -0.49, 0.0, 0.2, 0.49999, 0.5]),
            st.sampled_from([-0.5, -0.3, 0.0, 0.3, 0.5]),
            st.sampled_from([0.5, 0.9, 1.0]),
            st.sampled_from([0.0, 0.1, 0.2]),
        ),
        max_size=40,
    ),
)
def test_screen_and_lookup_match_loop(cells):
    n = len(cells)
    pix = np.array([[x + fx, y + fy] for x, y, fx, fy, _, _ in cells]).reshape(n, 2)
    cloud = make_cloud(pix, [c[4] for c in cells], [c[5] for c in cells], seed=n)
    screen, entries = assert_screen_matches_loop(cloud)
    queries = np.array([[x + 0.3, y - 0.2] for x in range(-6, 7) for y in range(-6, 7)])
    got = screen.lookup_many(queries)
    want = lookup_many_loop(entries, cloud.position, cloud.projector_pixel, queries)
    assert_lookup_matches_loop(got, want, entries, queries)


def test_lookup_with_zero_to_nine_neighbours():
    # column x keeps each grid cell with probability (x + 1) / 12, so the
    # queries see every neighbour count from 0 to 9
    rng = np.random.default_rng(4)
    grid = np.array([[x, y] for x in range(12) for y in range(12) if rng.random() < (x + 1) / 12])
    jitter = rng.uniform(-0.45, 0.45, grid.shape)
    cloud = make_cloud(grid + jitter, np.ones(len(grid)), np.zeros(len(grid)), seed=5)
    screen, entries = assert_screen_matches_loop(cloud)
    queries = np.array([[x, y] for x in range(-1, 13) for y in range(-1, 13)]) + rng.uniform(-0.4, 0.4, (196, 2))
    counts = {
        sum((int(x) + dx, int(y) + dy) in entries for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        for x, y in np.floor(queries + 0.5)
        if (int(x), int(y)) in entries
    } | {0}
    assert counts == set(range(10))
    got = screen.lookup_many(queries)
    want = lookup_many_loop(entries, cloud.position, cloud.projector_pixel, queries)
    assert_lookup_matches_loop(got, want, entries, queries)


def test_lookup_near_collinear_neighbourhood_takes_lstsq():
    # four entries in four bins of the query's 3x3 neighbourhood, all within
    # 1e-7 px of the line y = x / 2: the normal equations are near singular,
    # so the fit is lstsq's and equals the loop's exactly
    pix = np.array([[-1.4, -0.7], [-0.6, -0.3], [0.2, 0.1 + 1e-7], [1.0, 0.5]])
    cloud = make_cloud(pix, np.ones(4), np.zeros(4), seed=2)
    screen, entries = assert_screen_matches_loop(cloud)
    assert len(entries) == 4
    queries = np.array([[0.1, 0.05]])
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        got = screen.lookup_many(queries)
    assert lstsq.call_count == 1
    want = lookup_many_loop(entries, cloud.position, cloud.projector_pixel, queries)
    for g, w in zip(got, want):
        assert_same(g, w)


def test_lookup_on_empty_screen_and_far_queries():
    screen = build_virtual_screen(make_cloud(np.zeros((0, 2)), [], []))
    points, found = screen.lookup_many([[3.0, 4.0]])
    assert not found.any() and not points.any()
    screen = build_virtual_screen(make_cloud([[0.0, 0.0]], [1.0], [0.0]))
    points, found = screen.lookup_many([[1e12, 0.0], [-1e12, -1e12], [0.2, 0.1]])
    assert found.tolist() == [False, False, True]


# --- intersect_sweeps ------------------------------------------------------


def no_correspondences():
    return CorrespondenceSet(np.zeros((0, 2), np.int32), np.zeros((0, 2)), np.zeros(0, np.int32), np.zeros(0))


def intersect_sweeps_loop(assignments, polarity_policy="positive"):
    cl = decode._cluster(assignments, polarity_policy)
    v_idx = np.where(cl.sweep == SWEEP_VERTICAL)[0]
    h_idx = np.where(cl.sweep == SWEEP_HORIZONTAL)[0]
    if len(v_idx) == 0 or len(h_idx) == 0:
        return no_correspondences()
    vkeys = cl.pixel_key[v_idx]
    hkeys = cl.pixel_key[h_idx]
    common = np.intersect1d(vkeys, hkeys)
    if len(common) == 0:
        return no_correspondences()
    v_lo = np.searchsorted(vkeys, common, side="left")
    v_hi = np.searchsorted(vkeys, common, side="right")
    h_lo = np.searchsorted(hkeys, common, side="left")
    h_hi = np.searchsorted(hkeys, common, side="right")
    nv = v_hi - v_lo
    nh = h_hi - h_lo
    members_out, proj_out = [], []
    simple = (nv == 1) & (nh == 1)
    if np.any(simple):
        vi = v_idx[v_lo[simple]]
        hi = h_idx[h_lo[simple]]
        members_out.append(np.stack([vi, hi], axis=1))
        proj_out.append(np.stack([cl.median[vi], cl.median[hi]], axis=1))
    for k in np.where(~simple)[0]:
        for vi in v_idx[v_lo[k] : v_hi[k]]:
            for hi in h_idx[h_lo[k] : h_hi[k]]:
                members_out.append(np.array([[vi, hi]]))
                proj_out.append(np.array([[cl.median[vi], cl.median[hi]]]))
    return decode._build_set(cl, np.concatenate(members_out), np.concatenate(proj_out))


SCHED = ScanSchedule(801, 80100, 5000)  # 100 us per step
H0 = SCHED.sweep_start(1)


def assert_rows_match_provenance(a, corr):
    """Each row's support and quality, worked out again from its own events.

    Support is the number of events the row cites. Quality is
    max(0, 1 - max spread / steps) over the row's sweeps, a sweep's spread
    being the range of its events' positions (a -1 event moved back one
    step). Every cited event lies in a window and on the row's pixel.
    """
    steps = a.steps_per_sweep
    for i in range(len(corr)):
        ev = corr.events_of(i)
        assert corr.support[i] == len(ev)
        assert (a.sweep[ev] >= 0).all()
        assert (a.events.x[ev] == corr.camera_pixel[i, 0]).all() and (a.events.y[ev] == corr.camera_pixel[i, 1]).all()
        pos = a.position[ev] - (a.events.polarity[ev] < 0)
        spread = max(np.ptp(pos[a.sweep[ev] == s]) for s in np.unique(a.sweep[ev]))
        assert corr.quality[i] == max(0.0, 1.0 - spread / steps)


def assert_correspondences_match_loop(events, **kw):
    a = decode.assign_sweeps(events, SCHED, 0, 2)
    got = decode.intersect_sweeps(a, **kw)
    want = intersect_sweeps_loop(a, **kw)
    for name in ("camera_pixel", "projector_pixel", "support", "quality", "event_ids", "event_offsets"):
        assert_same(getattr(got, name), getattr(want, name))
    # the oracle's support and quality come from the same _build_set as got's
    assert_rows_match_provenance(a, got)
    return got


def stream(rows):
    """EventStream from (t, x, y, polarity) rows."""
    t, x, y, p = zip(*rows) if rows else ((), (), (), ())
    return EventStream(np.array(t), np.array(x), np.array(y), np.array(p))


def test_intersect_two_by_three_clusters():
    rows = [(10000, 5, 7, 1), (10100, 5, 7, 1), (50000, 5, 7, 1)]  # vertical clusters at 100, 500
    rows += [(H0 + t, 5, 7, 1) for t in (20000, 45000, 45100, 70000)]  # horizontal at 200, 450, 700
    rows += [(30000, 1, 2, 1), (H0 + 30000, 1, 2, 1)]  # a simple pixel before it
    rows += [(30000, 9, 9, 1), (H0 + 40000, 9, 9, -1)]  # and one after, off-policy in h
    corr = assert_correspondences_match_loop(stream(rows))
    assert len(corr) == 7
    assert (corr.camera_pixel == [5, 7]).all(axis=1).sum() == 6


def test_intersect_disjoint_sweeps_is_empty():
    rows = [(10000, x, 0, 1) for x in range(4)] + [(H0 + 10000, x, 1, 1) for x in range(4)]
    corr = assert_correspondences_match_loop(stream(rows))
    assert len(corr) == 0


@ORACLE
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0, H0]),
            st.integers(0, 80099),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from([1, 1, -1]),
        ),
        max_size=60,
    ),
    policy=st.sampled_from(["positive", "both"]),
)
def test_intersect_matches_loop(rows, policy):
    assert_correspondences_match_loop(stream([(s + t, x, y, p) for s, t, x, y, p in rows]), polarity_policy=policy)


def cluster_lexsort(a, policy, vertical_only=False):
    """decode._cluster as it was: a three-key lexsort, int64 indices, whole-length copies."""
    polarity = a.events.polarity
    if policy == "positive":
        keep = polarity > 0
    elif policy == "negative":
        keep = polarity < 0
    elif policy == "both":
        keep = np.ones(len(polarity), dtype=bool)
    else:
        raise ValueError(f"unknown polarity policy {policy!r}")
    keep &= (a.sweep == SWEEP_VERTICAL) if vertical_only else (a.sweep >= 0)
    ev = np.flatnonzero(keep)
    key = decode.pack_pixels(a.events.x[ev], a.events.y[ev])
    sweep = a.sweep[ev]
    pos = a.position[ev]
    pos[polarity[ev] < 0] -= 1.0
    order = np.lexsort((pos, sweep, key))
    key, sweep, pos, ev = key[order], sweep[order], pos[order], ev[order]
    brk = np.ones(len(key), dtype=bool)
    brk[1:] = (key[1:] != key[:-1]) | (sweep[1:] != sweep[:-1]) | (np.diff(pos) > max(2.0, 0.005 * a.steps_per_sweep))
    starts = np.flatnonzero(brk)
    sizes = np.diff(np.append(starts, len(key)))
    return decode._Clusters(
        pixel_key=key[starts],
        sweep=sweep[starts],
        median=pos[starts + (sizes - 1) // 2],
        quality=np.maximum(0.0, 1.0 - (pos[starts + sizes - 1] - pos[starts]) / a.steps_per_sweep),
        size=sizes,
        seg_start=starts,
        sorted_event_index=ev,
    )


INDEX_FIELDS = ("size", "seg_start", "sorted_event_index")

# gaps of 2, 4 and 5 steps around the 4.005-step cluster break of SCHED
CLOSE_TIMES = [1000, 1000, 1200, 1400, 1800, 2300]


@ORACLE
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 2 * 80100 + 2 * 5000), st.sampled_from(CLOSE_TIMES + [H0 + t for t in CLOSE_TIMES])),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from([1, -1]),
        ),
        max_size=60,
    ),
    time_sorted=st.booleans(),
    policy=st.sampled_from(["positive", "negative", "both"]),
    vertical_only=st.booleans(),
)
def test_cluster_order_and_fields_match_lexsort(rows, time_sorted, policy, vertical_only):
    if time_sorted:
        rows = sorted(rows, key=lambda r: r[0])
    events = stream(rows)
    a = decode.assign_sweeps(events, SCHED, 0, 2)
    got = decode._cluster(a, policy, vertical_only)
    want = cluster_lexsort(a, policy, vertical_only)
    # sorted_event_index, the cluster order, is the oracle's np.lexsort((pos, sweep, key))
    for f in fields(decode._Clusters):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name in INDEX_FIELDS:
            assert g.dtype == decode._index_dtype(len(events)) and w.dtype == np.int64
            g = g.astype(np.int64)
        assert_same(g, w)


def test_index_dtype_falls_back_to_int64_at_two_to_the_31():
    assert decode._index_dtype(0) is np.int32
    assert decode._index_dtype(2**31 - 1) is np.int32
    assert decode._index_dtype(2**31) is np.int64
    assert decode._index_dtype(2**40) is np.int64


@pytest.mark.parametrize("policy", ["positive", "both"])
def test_int64_indices_give_the_same_correspondences(policy):
    rows = [(s + t, x, y, p) for s in (0, H0) for t in (100, 300, 50000) for x in range(3) for y in range(2) for p in (1, -1)]
    a = decode.assign_sweeps(stream(rows), SCHED, 0, 2)
    narrow = decode.intersect_sweeps(a, policy)
    with mock.patch.object(decode, "_index_dtype", return_value=np.int64):
        assert decode._cluster(a, policy).sorted_event_index.dtype == np.int64
        wide = decode.intersect_sweeps(a, policy)
    assert len(narrow) > 0
    for name in ("camera_pixel", "projector_pixel", "support", "quality", "event_ids", "event_offsets"):
        assert_same(getattr(narrow, name), getattr(wide, name))


# --- _concat_ranges -----------------------------------------------------------


def concat_ranges_loop(starts, lens):
    return np.array([i for s, n in zip(starts, lens) for i in range(s, s + n)], dtype=np.int64)


@pytest.mark.parametrize("ranges", [[], [(5, 0)], [(7, 1)], [(3, 4)], [(0, 0), (4, 2), (9, 0), (1, 3), (2, 0)]])
def test_concat_ranges_edge_cases(ranges):
    for dtype in (np.int32, np.int64):
        starts = np.array([r[0] for r in ranges], dtype=dtype)
        lens = np.array([r[1] for r in ranges], dtype=dtype)
        assert_same(decode._concat_ranges(starts, lens), concat_ranges_loop(starts, lens))


@ORACLE
@given(ranges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 5)), max_size=40), wide=st.booleans())
def test_concat_ranges_matches_loop(ranges, wide):
    dtype = np.int64 if wide else np.int32
    starts = np.array([r[0] for r in ranges], dtype=dtype)
    lens = np.array([r[1] for r in ranges], dtype=dtype)
    assert_same(decode._concat_ranges(starts, lens), concat_ranges_loop(starts, lens))


# --- rows_matmul ----------------------------------------------------------------

B = geometry.ROW_BLOCK


@pytest.mark.parametrize("n", [0, 1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B + 5])
@pytest.mark.parametrize("right", ["vector", "matrix", "transposed"])
def test_rows_matmul_matches_whole_product(n, right):
    rng = np.random.default_rng(n)
    a = rng.normal(scale=300.0, size=(n, 3))
    b = {"vector": rng.normal(size=3), "matrix": rng.normal(size=(3, 3)), "transposed": rng.normal(size=(3, 3)).T}[right]
    blocks = []
    real_matmul = np.matmul

    def spy(x, y, **kwargs):
        blocks.append(len(x))
        return real_matmul(x, y, **kwargs)

    with mock.patch.object(geometry.np, "matmul", spy):
        got = geometry.rows_matmul(a, b)
    assert_same(got.view(np.uint64), (a @ b).view(np.uint64))
    # numpy multiplies a lone (1, 3) row by a (3,) vector with its dot kernel,
    # not gemv, and about one row in six then differs from the same row inside
    # a larger product in the last bit: no block may be one row where the
    # whole product has more (B + 1 and 2B + 1 would end in one)
    assert sum(blocks) == (n if n > B else 0)
    assert all(2 <= k <= B + 1 for k in blocks)


# --- pixel_directions and triangulate_ray_arrays ------------------------------


def undistort_loop(xd, yd, k1):
    """geometry._undistort as it was: 8 fixed-point iterations whatever ``k1`` is."""
    xn, yn = xd, yd
    for _ in range(8):
        r2 = xn * xn + yn * yn
        f = 1.0 + k1 * r2
        xn = xd / f
        yn = yd / f
    return xn, yn


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 50), k1=st.sampled_from([0.0, -0.0, -0.12, 0.08, 1e-9]))
def test_undistort_matches_loop(seed, n, k1):
    rng = np.random.default_rng(seed)
    xd, yd = rng.uniform(-0.6, 0.6, n), rng.uniform(-0.6, 0.6, n)
    xd[: n // 4] = -0.0
    # bit patterns, so a zero must keep its sign too
    for got, want in zip(geometry._undistort(xd, yd, k1), undistort_loop(xd, yd, k1)):
        assert_same(got.view(np.uint64), want.view(np.uint64))


def pixel_directions_stack(model, pixels):
    """geometry.pixel_directions as it was: normalised into a new array."""
    px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    yd = (px[:, 1] - model.cy) / model.fy
    xd = (px[:, 0] - model.cx - model.skew * yd) / model.fx
    xn, yn = undistort_loop(xd, yd, model.k1)
    dirs_world = np.stack([xn, yn, np.ones_like(xn)], axis=-1) @ model.rotation
    n = np.linalg.norm(dirs_world, axis=-1, keepdims=True)
    if np.any(n < 1e-300):
        raise ValueError("cannot normalize zero-length vector")
    return dirs_world / n


def triangulate_ray_arrays_whole(o1, d1, o2, d2):
    """geometry.triangulate_ray_arrays as it was: (N, 3) origins and whole-array temporaries."""
    o1, d1, o2, d2 = (np.atleast_2d(v) for v in (o1, d1, o2, d2))
    w = o1 - o2
    b = np.sum(d1 * d2, axis=1)
    d = np.sum(d1 * w, axis=1)
    e = np.sum(d2 * w, axis=1)
    denom = 1.0 - b * b
    cross_norm = np.linalg.norm(np.cross(d1, d2), axis=1)
    safe = np.where(denom < 1e-300, 1.0, denom)
    s = (b * e - d) / safe
    t = (e - b * d) / safe
    p1 = o1 + s[:, None] * d1
    p2 = o2 + t[:, None] * d2
    return 0.5 * (p1 + p2), np.linalg.norm(p1 - p2, axis=1), cross_norm


def skewed_model(rng, k1):
    axis = geometry.unit(rng.normal(size=3))
    angle = rng.uniform(-0.5, 0.5)
    K = geometry.cross_matrix(axis)
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    return geometry.PinholeModel(
        fx=rng.uniform(500, 2500), fy=rng.uniform(500, 2500), cx=rng.uniform(100, 500), cy=rng.uniform(100, 500),
        width=640, height=640, skew=rng.uniform(-2, 2), rotation=R, translation=rng.uniform(-80, 80, 3), k1=k1,
    )


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), k1=st.sampled_from([0.0, -0.12, 0.08]), shared=st.booleans())
def test_rays_match_whole_array_oracle(seed, n, k1, shared):
    rng = np.random.default_rng(seed)
    camera, projector = skewed_model(rng, k1), skewed_model(rng, -k1)
    cam_px = np.stack([rng.integers(0, 640, n), rng.integers(0, 640, n)], axis=1).astype(np.int32)
    proj_px = rng.uniform(-10, 650, (n, 2))
    d1 = geometry.pixel_directions(camera, cam_px)
    d2 = geometry.pixel_directions(projector, proj_px)
    assert_same(d1, pixel_directions_stack(camera, cam_px))
    assert_same(d2, pixel_directions_stack(projector, proj_px))
    if shared:
        o1, o2 = camera.center, projector.center
    else:
        o1, o2 = rng.uniform(-100, 100, (n, 3)), rng.uniform(-100, 100, (n, 3))
    want = triangulate_ray_arrays_whole(np.broadcast_to(o1, d1.shape), d1, np.broadcast_to(o2, d2.shape), d2)
    for g, w in zip(geometry.triangulate_ray_arrays(o1, d1, o2, d2), want):
        assert_same(g, w)


def test_ray_oracles_on_parallel_and_single_rays():
    d = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    for o2 in (np.array([5.0, 0.0, 0.0]), np.array([[5.0, 0.0, 0.0], [1.0, 2.0, 3.0]])):
        for g, w in zip(geometry.triangulate_ray_arrays(np.zeros(3), d, o2, d), triangulate_ray_arrays_whole(np.zeros((2, 3)), d, o2, d)):
            assert_same(g, w)
    single = geometry.triangulate_ray_arrays([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [5.0, 0.0, 0.0], [-0.6, 0.0, 0.8])
    for g, w in zip(single, triangulate_ray_arrays_whole([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [5.0, 0.0, 0.0], [-0.6, 0.0, 0.8])):
        assert_same(g, w)


def test_pixel_directions_still_raise_on_zero_length():
    model = geometry.PinholeModel(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
    object.__setattr__(model, "rotation", np.zeros((3, 3)))  # past the orthonormality check
    for directions in (geometry.pixel_directions, pixel_directions_stack):
        with pytest.raises(ValueError, match="zero-length"):
            directions(model, [[10.0, 20.0]])


# --- resolve_mixed_pixels ---------------------------------------------------


@ORACLE
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from([0.5, 0.9, np.nan]), st.integers(0, 2)),
        max_size=40,
    ),
    presorted=st.booleans(),
)
def test_sort_by_key_is_lexsort(rows, presorted):
    if presorted:
        rows = sorted(rows, key=lambda r: r[0])
    key = np.array([r[0] for r in rows], dtype=np.int64)
    a = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows], dtype=np.float64)
    assert_same(decode._sort_by_key(key, a, b), np.lexsort((a, b, key)))


def resolve_mixed_loop(classified):
    b = classified.base
    key = decode.pack_pixels(b.camera_pixel[:, 0], b.camera_pixel[:, 1])
    label = classified.label.copy()
    order = np.lexsort((classified.epipolar_distance, -b.quality, key))
    direct_rows = order[label[order] == DIRECT]
    direct_keys = key[direct_rows]
    first = np.ones(len(direct_rows), dtype=bool)
    first[1:] = direct_keys[1:] != direct_keys[:-1]
    label[direct_rows[~first]] = REJECTED
    if len(direct_keys):
        label[(label == INDIRECT) & np.isin(key, direct_keys)] = REJECTED
    return label


@ORACLE
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.5, 0.9]), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_resolve_mixed_matches_loop(rows):
    n = len(rows)
    corr = CorrespondenceSet(
        np.array([[x, y] for x, y, _, _ in rows], np.int32),
        np.zeros((n, 2)),
        np.ones(n, np.int32),
        np.array([q for _, _, q, _ in rows]),
    )
    label = np.array([DIRECT if d else INDIRECT for *_, d in rows], np.int8)
    classified = ClassifiedSet(corr, label, np.arange(n, dtype=np.float64) % 3)
    assert_same(resolve_mixed_pixels(classified).label, resolve_mixed_loop(classified))


# --- formats._write_text --------------------------------------------------------


def text_columns_loop(columns, arrays):
    """(percent format, python list) per column, one field converted at a time."""
    specs = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
    for (names, kind, *_), field in zip(formats._entries(columns), arrays, strict=True):
        field = np.asarray(field)
        if field.shape[1:] != ((len(names),) if len(names) > 1 else ()):
            raise ValueError(f"columns {' '.join(names)} got an array of shape {field.shape}")
        for col in field.T if len(names) > 1 else [field]:
            if isinstance(kind, tuple):
                yield "%s", np.take(np.array(kind, dtype=object), col).tolist()
            else:
                yield specs[np.dtype(kind).kind], col.tolist()


def write_text_loop(path, head, columns, arrays) -> None:
    """The lines ``head(row count)``, then one ``%`` call per row over whole-column lists."""
    specs = list(text_columns_loop(columns, arrays))
    n = len(specs[0][1]) if specs else 0
    if any(len(values) != n for _, values in specs):
        raise ValueError("table columns must have equal length")
    fmt = " ".join(s[0] for s in specs)
    body = "\n".join(fmt % row for row in zip(*[s[1] for s in specs]))
    with open(path, "w") as f:
        f.writelines(["\n".join(head(n)), "\n", body, "\n" if n else ""])


def oracle_bytes(write, path, *args) -> bytes:
    """The bytes ``write(path, *args)`` (write_table, write_ply or a save method) gives through the whole-column writer."""
    with mock.patch.object(formats, "_write_text", write_text_loop):
        write(path, *args)
    return Path(path).read_bytes()


B = formats._BLOCK_ROWS
EDGE_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
NAMES = [("false", "true"), ("direct", "indirect", "rejected"), ("wall",)]
INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]


@st.composite
def column_values(draw, kind, size: int, rng) -> np.ndarray:
    """``size`` values for one declared kind: drawn from a small pool (heavy
    repeats), or for numbers sometimes one random value per row."""
    if isinstance(kind, tuple):
        codes = rng.integers(0, len(kind), size)
        return codes.astype(bool) if len(kind) == 2 and draw(st.booleans()) else codes.astype(np.int8)
    if kind is str:
        pool = draw(st.lists(st.text("abc_.-019", min_size=1, max_size=5), min_size=1, max_size=6))
        return np.array(pool)[rng.integers(0, len(pool), size)]
    spread = draw(st.booleans())
    if kind == np.float64:
        # a float column also takes float32 and int64 arrays
        dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
        if spread:
            return (rng.standard_normal(size) * 10.0 ** rng.integers(-20, 18, size)).astype(dtype)
        values = {
            np.float64: st.sampled_from(EDGE_FLOATS) | st.floats(),
            np.float32: st.floats(width=32),
            np.int64: st.integers(-(2**63), 2**63 - 1),
        }[dtype]
        pool = draw(st.lists(values, min_size=1, max_size=6))
        return np.array(pool, dtype=dtype)[rng.integers(0, len(pool), size)]
    info = np.iinfo(kind)
    if spread:
        return rng.integers(info.min, info.max, size, dtype=kind, endpoint=True)
    pool = draw(st.lists(st.sampled_from([info.min, info.max, 0]) | st.integers(info.min, info.max), min_size=1, max_size=6))
    return np.array(pool, dtype=kind)[rng.integers(0, len(pool), size)]


@st.composite
def declared_tables(draw):
    """(declaration, one array per entry): int, float, names and bare string
    columns and (N, k) fields, with a row count at and around the block size."""
    n = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, arrays = [], []
    for e in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(INTS + [np.float64, str] + NAMES))
        width = draw(st.integers(1, 3))
        values = draw(column_values(kind, n * width, rng))
        names = f"c{e}" if width == 1 else tuple(f"c{e}_{k}" for k in range(width))
        columns.append(names if kind is str and width == 1 else (names, kind))
        arrays.append(values if width == 1 else values.reshape(n, width))
    return columns, arrays


@ORACLE
@given(table=declared_tables())
def test_text_writers_match_whole_column_oracle(table):
    columns, arrays = table
    with tempfile.TemporaryDirectory() as tmp:
        for write, text in ((formats.write_table, "labels: a b"), (formats.write_ply, "a comment")):
            blocks = Path(tmp) / "blocks"
            write(blocks, columns, arrays, text)
            assert blocks.read_bytes() == oracle_bytes(write, Path(tmp) / "oracle", columns, arrays, text)


def test_ground_truth_text_matches_whole_column_oracle(both_layouts):
    _, res, _, _, tmp = both_layouts
    blocks, loop = (tmp / "blocks.txt", tmp / "blocks_events.txt"), (tmp / "loop.txt", tmp / "loop_events.txt")
    res.ground_truth.save_text(*blocks)
    assert len(res.ground_truth) > B
    oracle_bytes(res.ground_truth.save_text, *loop)
    for a, b in zip(blocks, loop):
        assert a.read_bytes() == b.read_bytes()
