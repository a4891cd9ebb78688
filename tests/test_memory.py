"""Transient memory of decode and triangulation, per row, under tracemalloc.

The budgets hold the whole-length temporaries of ``intersect_sweeps`` and
``triangulate_direct`` down. Measured on these inputs (numpy allocations are
traced): ``intersect_sweeps`` peaks at 94 B per clustered event (190 B with
the three-key lexsort and int64 indices it replaced) and
``triangulate_direct`` at 152 B per point (312 B with (N, 3) origin arrays
and new arrays for every step).
"""

import tracemalloc

import numpy as np

from conftest import small_rig
from eventscan import decode
from eventscan.decode import CorrespondenceSet
from eventscan.events import EventStream
from eventscan.geometry import pixel_directions, project_points
from eventscan.scene import ScanSchedule
from eventscan.separate import DIRECT, ClassifiedSet
from eventscan.triangulate import triangulate_direct

INTERSECT_BYTES_PER_EVENT = 120
TRIANGULATE_BYTES_PER_POINT = 190

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
