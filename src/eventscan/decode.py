"""Decode an event stream into per-camera-pixel projector correspondences.

``assign_sweeps`` labels the stream in place: ``SweepAssignments`` is a view
on the ``EventStream`` it was given, with one sweep label and one continuous
sweep position ``(t - sweep_start) * steps / duration`` per event (the
integer part is the projector step, the fraction the sub-step residual
carried by the timestamp); events outside every sweep window are labelled
-1. Per camera pixel, positions from repeated events are clustered (a shiny
pixel sees both its own illumination and a mirrored one), each cluster is
aggregated by its median, and vertical x horizontal cluster pairs become
correspondences ``(x_P, y_P)``; the single-sweep mode takes ``y_P`` from
the epipolar line instead. Both modes share one clustering step.

Clustering orders the chosen events by (pixel key, sweep, position), the
order of ``np.lexsort((position, sweep, pixel_key))``, from one packed int64
key per event and a lexsort of only the events whose key is shared. Each
pixel's clusters are then contiguous, its vertical ones first, so one pass
over the runs of equal pixel keys pairs them. Event and cluster indices are
int32 below 2**31 events.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .events import SWEEP_HORIZONTAL, SWEEP_VERTICAL, EventStream
from .geometry import rows_matmul
from .scene import ScanSchedule

_KEY_SHIFT = 20


def pack_pixels(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One int64 key per camera pixel, ``(y << _KEY_SHIFT) | x``: keys sort row-major."""
    return (np.asarray(y, dtype=np.int64) << _KEY_SHIFT) | np.asarray(x, dtype=np.int64)


def unpack_pixels(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) of each ``pack_pixels`` key."""
    return key & ((1 << _KEY_SHIFT) - 1), key >> _KEY_SHIFT


@dataclass
class SweepAssignments:
    """Sweep labels on a stream: one entry of each array per event of ``events``.

    ``sweep`` is SWEEP_VERTICAL, SWEEP_HORIZONTAL, or -1 for an event outside
    every sweep window (its ``position`` is 0). ``len()`` counts the events
    inside a window.
    """

    events: EventStream  # the labelled stream itself, not a copy
    sweep: np.ndarray  # int8
    position: np.ndarray  # float64, continuous sweep position in steps
    steps_per_sweep: int
    discarded_recovery: int
    outside_window: int

    def __len__(self) -> int:
        return int(np.count_nonzero(self.sweep >= 0))


def assign_sweeps(events: EventStream, schedule: ScanSchedule, scan_start_us: int, n_sweeps: int = 2) -> SweepAssignments:
    """Label every event with its sweep and sweep position.

    Events inside recovery windows are counted as ``discarded_recovery``;
    the other events outside every sweep window as ``outside_window``.
    """
    t = events.t
    steps = schedule.steps_per_sweep
    duration = schedule.sweep_duration_us
    sweep = np.full(len(t), -1, dtype=np.int8)
    position = np.zeros(len(t), dtype=np.float64)
    recovery = 0
    for s in range(n_sweeps):
        start = scan_start_us + s * (duration + schedule.recovery_us)
        inside = (t >= start) & (t < start + duration)
        sweep[inside] = s
        position[inside] = (t[inside] - start) * steps / duration
        recovery += int(np.count_nonzero((t >= start + duration) & (t < start + duration + schedule.recovery_us)))
    outside = len(t) - int(np.count_nonzero(sweep >= 0)) - recovery
    return SweepAssignments(events, sweep, position, steps, recovery, outside)


# decode writes camera pixels of the image, finite projector pixels, at
# least one supporting event and quality 1 - spread/steps, at least 0
CORRESPONDENCE_COLUMNS = (
    (("x_C", "y_C"), np.int32, (0, np.inf)),
    (("x_P", "y_P"), np.float64, (-sys.float_info.max, sys.float_info.max)),
    ("support", np.int32, (1, np.inf)),
    ("quality", np.float64, (0, 1)),
)


@dataclass
class CorrespondenceSet:
    """Camera pixel to projector pixel links with provenance.

    ``event_ids``/``event_offsets`` form a CSR layout: events contributing to
    correspondence i are ``event_ids[event_offsets[i]:event_offsets[i+1]]``
    (indices into the originating stream).
    """

    camera_pixel: np.ndarray  # (N, 2) int32
    projector_pixel: np.ndarray  # (N, 2) float64
    support: np.ndarray  # int32
    quality: np.ndarray  # float64 in [0, 1]
    event_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    event_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.support)

    def events_of(self, i: int) -> np.ndarray:
        return self.event_ids[self.event_offsets[i] : self.event_offsets[i + 1]]

    def table(self) -> list:
        """The arrays of CORRESPONDENCE_COLUMNS, in order."""
        return [self.camera_pixel, self.projector_pixel, self.support, self.quality]

    def save_text(self, path) -> None:
        formats.write_table(path, CORRESPONDENCE_COLUMNS, self.table())

    @staticmethod
    def load_text(path) -> "CorrespondenceSet":
        return CorrespondenceSet(*formats.read_table(path, CORRESPONDENCE_COLUMNS)[1])


def refuse_outside_image(path, correspondences: CorrespondenceSet, camera) -> None:
    """FormatError naming the first row of ``path``, which ``correspondences``
    were read from, whose camera pixel lies beyond ``camera``'s image.

    The bound is the rig's, so no declaration can carry it; a negative pixel
    is already refused on load (``CORRESPONDENCE_COLUMNS``).
    """
    for name, col, size in (("x_C", 0, camera.width), ("y_C", 1, camera.height)):
        formats._refuse_outside(path, (name,), (0, size - 1), correspondences.camera_pixel[:, col])


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[starts[i], starts[i] + lens[i])``, concatenated, as int64.

    One int64 array holds the step from each index to the next (1 inside a
    range, the jump to the next range's start at its first slot); its
    cumulative sum is the answer.
    """
    nonempty = lens > 0
    if not nonempty.all():
        starts, lens = starts[nonempty], lens[nonempty]
    steps = np.ones(int(lens.sum()), dtype=np.int64)
    if len(steps) == 0:
        return steps
    steps[0] = starts[0]
    # first slot of range i > 0: its start minus the last index of range i - 1
    jump = starts[:-1] + lens[:-1]
    np.subtract(starts[1:], jump, out=jump)
    jump += 1
    steps[np.cumsum(lens[:-1])] = jump
    return np.cumsum(steps, out=steps)


def _runs(sorted_keys: np.ndarray):
    """(start, stop, key) of each run of equal values in a sorted key array."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], len(sorted_keys))
    return starts, stops, sorted_keys[starts]


def _sort_by_key(key: np.ndarray, *ties: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort(ties + (key,))``, for an int ``key``.

    A stable sort on ``key`` alone orders every row, in linear time when
    ``key`` is already sorted; only the rows whose key is shared are then
    lexsorted by ``ties`` (the last one most significant, as in lexsort).
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    shared = np.zeros(len(order), dtype=bool)
    shared[1:] = sorted_key[1:] == sorted_key[:-1]
    shared[:-1] |= shared[1:]
    sub = order[shared]
    order[shared] = sub[np.lexsort(tuple(t[sub] for t in ties) + (key[sub],))]
    return order


# Sweep labels are int8 and at least 0 where clustered: 7 bits hold any of them.
_SWEEP_BITS = 7


def _index_dtype(n: int) -> type:
    """int32 when ``n`` and every index below it fit in it, else int64."""
    return np.int32 if n < 2**31 else np.int64


@dataclass
class _Clusters:
    """Contiguous position clusters per (pixel, sweep), ready for pairing.

    Clusters run in (pixel key, sweep, position) order, so each pixel's
    clusters are contiguous, its vertical ones before its horizontal ones.
    """

    pixel_key: np.ndarray
    sweep: np.ndarray  # int8
    median: np.ndarray
    quality: np.ndarray  # 1 - spread / steps, at least 0
    size: np.ndarray  # size, seg_start and sorted_event_index: _index_dtype of the stream length
    seg_start: np.ndarray  # cluster i is sorted_event_index[seg_start[i]:seg_start[i] + size[i]]
    sorted_event_index: np.ndarray


def _cluster(a: SweepAssignments, policy: str, vertical_only: bool = False) -> _Clusters:
    """Cluster the timing events of each (pixel, sweep) by sweep position.

    ``policy`` picks the events by polarity ("positive", "negative" or
    "both"); a -1 event's position is moved back one step, onto the step
    whose crossing it ends. Only in-window events count, and only the
    vertical sweep's with ``vertical_only``. Sorted by (pixel, sweep,
    position), a gap over ``max(2, 0.005 * steps)`` positions starts a new
    cluster.

    The order is ``np.lexsort((position, sweep, pixel_key))``: one stable
    argsort of the packed key ``pixel_key << _SWEEP_BITS | sweep``, then a
    lexsort by position of the events whose key is shared (``_sort_by_key``).
    A stable argsort of the key alone would be enough only for a
    time-sorted stream under a one-polarity policy, and nothing checks that
    a stream read from a file is sorted.
    """
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
    index = _index_dtype(len(polarity))
    ev = np.flatnonzero(keep).astype(index)
    del keep
    pos = a.position[ev]
    pos[polarity[ev] < 0] -= 1.0
    key = pack_pixels(a.events.x[ev], a.events.y[ev])
    key <<= _SWEEP_BITS
    key |= a.sweep[ev]
    order = _sort_by_key(key, pos)
    key = key[order]
    pos = pos[order]
    ev = ev[order]
    del order
    n = len(key)
    brk = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=brk[1:])
    # within one (pixel, sweep) only a position gap starts a cluster
    same = np.flatnonzero(~brk[1:])
    brk[same + 1] = pos[same + 1] - pos[same] > max(2.0, 0.005 * a.steps_per_sweep)
    del same
    starts = np.flatnonzero(brk).astype(index)
    del brk
    sizes = np.diff(starts, append=np.array([n], dtype=index))
    head = key[starts]
    del key
    median = pos[starts + (sizes - 1) // 2]  # lower middle on ties
    quality = pos[starts + sizes - 1]
    quality -= pos[starts]
    del pos
    quality /= a.steps_per_sweep
    np.maximum(0.0, np.subtract(1.0, quality, out=quality), out=quality)
    sweep = (head & ((1 << _SWEEP_BITS) - 1)).astype(np.int8)
    head >>= _SWEEP_BITS
    return _Clusters(head, sweep, median, quality, sizes, starts, ev)


def _build_set(cl: _Clusters, members: np.ndarray, proj: np.ndarray) -> CorrespondenceSet:
    """Assemble a canonical, deterministically ordered correspondence set.

    Row i joins the clusters ``members[i]`` (one per sweep used) of one
    pixel, at projector pixel ``proj[i]``. Its support is the number of
    events in those clusters and its quality that of the worst of them.
    ``members`` and ``proj`` are reordered in place, one at a time, and
    ``proj`` becomes the set's projector pixels.
    """
    key = cl.pixel_key[members[:, 0]]
    order = _sort_by_key(key, proj[:, 1], proj[:, 0])
    for column in (key, members, proj):
        column[...] = column[order]
    del order
    cam = np.stack(unpack_pixels(key), axis=1).astype(np.int32)
    del key
    quality = cl.quality[members].min(axis=1)
    sizes = cl.size[members]
    flat = _concat_ranges(cl.seg_start[members].ravel(), sizes.ravel())
    flat[...] = cl.sorted_event_index[flat]
    support = sizes.sum(axis=1)
    del sizes
    offsets = np.concatenate([[0], np.cumsum(support)]).astype(np.int64)
    return CorrespondenceSet(cam, proj, support.astype(np.int32), quality, flat, offsets)


def _vertical_horizontal_pairs(cl: _Clusters) -> tuple[np.ndarray, np.ndarray]:
    """(members, projector pixels) of every vertical x horizontal cluster pair of a pixel.

    Pairs run by pixel, then vertical cluster, then horizontal cluster.
    """
    # one run of clusters per pixel, its nv vertical clusters before its nh horizontal ones
    lo, _, _ = _runs(cl.pixel_key)
    index = cl.size.dtype
    nv = np.add.reduceat(cl.sweep == SWEEP_VERTICAL, lo, dtype=index)
    nh = np.add.reduceat(cl.sweep == SWEEP_HORIZONTAL, lo, dtype=index)
    both = (nv > 0) & (nh > 0)
    lo, nv, nh = lo[both].astype(index), nv[both], nh[both]
    del both
    pairs = nv.astype(np.int64) * nh
    pixel = np.repeat(np.arange(len(pairs), dtype=index), pairs)
    j = _concat_ranges(np.zeros_like(pairs), pairs)  # pair index within its pixel
    del pairs
    members = np.empty((len(j), 2), dtype=index)
    members[:, 0] = lo[pixel] + j // nh[pixel]
    members[:, 1] = lo[pixel] + nv[pixel] + j % nh[pixel]
    return members, cl.median[members]


def intersect_sweeps(assignments: SweepAssignments, polarity_policy: str = "positive") -> CorrespondenceSet:
    """Pair vertical and horizontal sweep detections into (x_P, y_P) links.

    A camera pixel whose events form several well-separated position clusters
    in a sweep (a mixed direct + mirrored pixel) yields one candidate
    correspondence per vertical x horizontal cluster pair; downstream
    separation resolves which survive. Per cluster the median position is
    used; quality is 1 - spread / steps, taken from the worse cluster of the
    pair. Clusters arrive sorted by (pixel, sweep, position), so one pass
    over the runs of equal pixel keys finds every pixel seen in both sweeps.
    """
    cl = _cluster(assignments, polarity_policy)
    return _build_set(cl, *_vertical_horizontal_pairs(cl))


def intersect_single_sweep(assignments: SweepAssignments, F: np.ndarray, polarity_policy: str = "positive") -> CorrespondenceSet:
    """Diffuse-only decoding from the vertical sweep alone.

    The sweep gives x_P; y_P comes from the epipolar constraint: the
    projector point of camera pixel p_C lies on the line F^T p_C, which is
    intersected with the column x = x_P. Support counts vertical events only,
    so it may be 1. Pixels whose projector epipolar line is near-parallel to
    the columns are skipped (y_P unidentifiable from a vertical sweep).
    """
    cl = _cluster(assignments, polarity_policy, vertical_only=True)
    x_c, y_c = unpack_pixels(cl.pixel_key)
    lines = rows_matmul(np.stack([x_c, y_c, np.ones(len(x_c))], axis=1), F)  # rows: F^T p_C
    ok = np.abs(lines[:, 1]) > 1e-9 * np.hypot(lines[:, 0], lines[:, 1])
    y_p = np.where(ok, -(lines[:, 0] * cl.median + lines[:, 2]) / np.where(ok, lines[:, 1], 1.0), 0.0)
    return _build_set(cl, np.flatnonzero(ok)[:, None], np.stack([cl.median[ok], y_p[ok]], axis=1))
