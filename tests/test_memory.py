"""Transient memory of decode, triangulation and ground-truth I/O, per row, under tracemalloc.

The budgets hold the whole-length temporaries of ``intersect_sweeps``,
``triangulate_direct`` and ``GroundTruth.save_text``/``load_text`` down, and
the binary twin of a table to a constant beyond the arrays it is written from.
Measured on these inputs (numpy allocations are traced):

- ``intersect_sweeps`` peaks at 94 B per clustered event (190 B with the
  three-key lexsort and int64 indices it replaced);
- ``triangulate_direct`` at 144 B per point (152 B with ``np.cross``, which
  copies both direction arrays; 312 B with (N, 3) origin arrays and new
  arrays for every step);
- ``GroundTruth.save_text`` at 27 B and ``load_text`` at 28 B per event,
  four events per light path (34 B and 62 B when each event's step time
  was stored and checked against a (sweep, step) table; 111 B per event
  saved when every column's distinct texts were held until the last row
  was out; 226 B and 159 B when the file had one row per event, each with
  its path's annotation written out);
- a text write at one block of text, 6.5 MiB for a ``DiffuseCloud`` PLY
  of 50,000 and of 200,000 points alike (29 and 117 MiB when every
  column's distinct texts were held until the last row was out);
- the twin of an event, light-path or event-truth table at a few KiB,
  whatever its length, when its arrays already have their parsed types.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from conftest import small_rig
from eventscan import decode, formats
from eventscan.decode import CorrespondenceSet
from eventscan.events import EVENT_COLUMNS, EVENT_TRUTH_COLUMNS, PATH_COLUMNS, UNANNOTATED, EventStream, GroundTruth
from eventscan.geometry import pixel_directions, project_points
from eventscan.scene import ScanSchedule
from eventscan.separate import DIRECT, ClassifiedSet
from eventscan.triangulate import DiffuseCloud, triangulate_direct

INTERSECT_BYTES_PER_EVENT = 120
TRIANGULATE_BYTES_PER_POINT = 180
TRUTH_SAVE_BYTES_PER_EVENT = 36
TRUTH_LOAD_BYTES_PER_EVENT = 40
TWIN_WRITE_BYTES = 64 << 10
TEXT_WRITE_BYTES = 8 << 20

SCHED = ScanSchedule(801, 80100, 5000)


def peak_bytes(f, *args):
    """(result, peak traced bytes above the start) of ``f(*args)``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def one_pixel_per_crossing(n_pixels, rng):
    """A time-sorted stream: every pixel is crossed once per sweep, ON then OFF one step later."""
    x = np.arange(n_pixels) % 250
    y = np.arange(n_pixels) // 250
    t, p = [], []
    for sweep in (0, 1):
        on = SCHED.sweep_start(sweep) + rng.integers(0, 80000, n_pixels)
        t += [on, on + 100]
        p += [np.ones(n_pixels), -np.ones(n_pixels)]
    t = np.concatenate(t)
    order = np.argsort(t, kind="stable")
    return EventStream(t[order], np.tile(x, 4)[order], np.tile(y, 4)[order], np.concatenate(p)[order])


def test_intersect_sweeps_transient_bytes_per_event():
    events = one_pixel_per_crossing(50_000, np.random.default_rng(0))  # 200,000 events, half of them ON
    a = decode.assign_sweeps(events, SCHED, 0, 2)
    corr, peak = peak_bytes(decode.intersect_sweeps, a)
    clustered = int((events.polarity > 0).sum())
    assert len(corr) == 50_000 and len(corr.event_ids) == clustered
    assert peak / clustered <= INTERSECT_BYTES_PER_EVENT


def test_triangulate_direct_transient_bytes_per_point():
    camera, projector = small_rig()
    rng = np.random.default_rng(1)
    n = 200_000
    cam = np.stack([rng.integers(0, 400, n), rng.integers(0, 400, n)], axis=1).astype(np.int32)
    d = pixel_directions(camera, cam)
    wall = camera.center + d * ((600.0 - camera.center[2]) / d[:, 2])[:, None]
    proj, _ = project_points(projector, wall)
    corr = CorrespondenceSet(cam, proj, np.full(n, 2, np.int32), np.ones(n))
    cloud, peak = peak_bytes(triangulate_direct, ClassifiedSet(corr, np.full(n, DIRECT, np.int8), np.zeros(n)), camera, projector, 1.0)
    assert len(cloud) == n
    assert peak / n <= TRIANGULATE_BYTES_PER_POINT


def four_events_per_path(n_paths, rng):
    """Ground truth of a dual scan: each path gives an ON and an OFF event in both sweeps."""
    steps = SCHED.steps_per_sweep
    return GroundTruth(
        np.ones(n_paths), rng.uniform(-100, 100, (n_paths, 3)), rng.integers(0, 2, n_paths),
        rng.uniform(0, steps, (n_paths, 2)), rng.random(n_paths) < 0.01,
        path=np.tile(np.arange(n_paths), 4), sweep=np.repeat([0, 0, 1, 1], n_paths),
        step=rng.integers(0, steps, 4 * n_paths), labels=("wall", "mirror"),
    )


def test_ground_truth_text_transient_bytes_per_event():
    gt = four_events_per_path(50_000, np.random.default_rng(2))  # 200,000 events
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp) / "ground_truth.txt", Path(tmp) / "ground_truth_events.txt"
        _, save_peak = peak_bytes(gt.save_text, *files)
        back, load_peak = peak_bytes(GroundTruth.load_text, *files)
    assert len(back) == len(gt) == 200_000 and len(back.bounce) == 50_000
    assert save_peak / len(gt) <= TRUTH_SAVE_BYTES_PER_EVENT
    assert load_peak / len(gt) <= TRUTH_LOAD_BYTES_PER_EVENT


def test_twin_write_allocates_a_constant_beyond_its_arrays():
    gt = four_events_per_path(50_000, np.random.default_rng(3))
    events = one_pixel_per_crossing(50_000, np.random.default_rng(4))
    tables = {
        "events.txt": (EVENT_COLUMNS, [events.t, events.x, events.y, events.polarity]),
        "ground_truth.txt": (PATH_COLUMNS, [getattr(gt, name) for name in UNANNOTATED]),
        "ground_truth_events.txt": (EVENT_TRUTH_COLUMNS, [gt.path, gt.sweep, gt.step]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (columns, arrays) in tables.items():
            path = Path(tmp) / name
            entries = zip(formats._entries(columns), arrays, strict=True)
            records = [formats._record(path, *entry, np.asarray(field)) for entry, field in entries]
            _, peak = peak_bytes(formats._write_twin, path, columns, records, "0" * 64)
            assert peak <= TWIN_WRITE_BYTES, name


def random_cloud(n, rng) -> DiffuseCloud:
    pixel = rng.integers(0, 1280, (n, 2)).astype(np.int32)
    return DiffuseCloud(rng.normal(size=(n, 3)) * 100, pixel, rng.uniform(0, 800, (n, 2)), rng.random(n), rng.random(n))


def test_text_write_allocates_a_constant_beyond_its_arrays():
    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diffuse.ply"
        random_cloud(10, rng).save_ply(path)  # the writers' first call imports what they use
        peaks = [peak_bytes(random_cloud(n, rng).save_ply, path)[1] for n in (50_000, 200_000)]
    assert max(peaks) <= TEXT_WRITE_BYTES
    assert abs(peaks[1] - peaks[0]) <= 256 << 10  # 150,000 rows more, not 2 B per row more
