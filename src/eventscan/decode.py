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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats
from .events import SWEEP_HORIZONTAL, SWEEP_VERTICAL, EventStream
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


CORRESPONDENCE_COLUMNS = ((("x_C", "y_C"), np.int32), (("x_P", "y_P"), np.float64), ("support", np.int32), ("quality", np.float64))


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


def _empty_correspondences() -> CorrespondenceSet:
    return CorrespondenceSet(np.zeros((0, 2), np.int32), np.zeros((0, 2)), np.zeros(0, np.int32), np.zeros(0))


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[starts[i], starts[i] + lens[i])``, concatenated."""
    lens = lens.astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, lens) + np.repeat(starts, lens)


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


@dataclass
class _Clusters:
    """Contiguous position clusters per (pixel, sweep), ready for pairing."""

    pixel_key: np.ndarray
    sweep: np.ndarray
    median: np.ndarray
    quality: np.ndarray  # 1 - spread / steps, at least 0
    size: np.ndarray
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
    ev = np.flatnonzero(keep)
    key = pack_pixels(a.events.x[ev], a.events.y[ev])
    sweep = a.sweep[ev]
    pos = a.position[ev]
    pos[polarity[ev] < 0] -= 1.0
    order = np.lexsort((pos, sweep, key))
    key, sweep, pos, ev = key[order], sweep[order], pos[order], ev[order]
    brk = np.ones(len(key), dtype=bool)
    brk[1:] = (key[1:] != key[:-1]) | (sweep[1:] != sweep[:-1]) | (np.diff(pos) > max(2.0, 0.005 * a.steps_per_sweep))
    starts = np.flatnonzero(brk)
    sizes = np.diff(np.append(starts, len(key)))
    return _Clusters(
        pixel_key=key[starts],
        sweep=sweep[starts],
        median=pos[starts + (sizes - 1) // 2],  # lower middle on ties
        quality=np.maximum(0.0, 1.0 - (pos[starts + sizes - 1] - pos[starts]) / a.steps_per_sweep),
        size=sizes,
        seg_start=starts,
        sorted_event_index=ev,
    )


def _build_set(cl: _Clusters, members: np.ndarray, proj: np.ndarray) -> CorrespondenceSet:
    """Assemble a canonical, deterministically ordered correspondence set.

    Row i joins the clusters ``members[i]`` (one per sweep used) of one
    pixel, at projector pixel ``proj[i]``. Its support is the number of
    events in those clusters and its quality that of the worst of them.
    """
    key = cl.pixel_key[members[:, 0]]
    order = _sort_by_key(key, proj[:, 1], proj[:, 0])
    key, members, proj = key[order], members[order], proj[order]
    sizes = cl.size[members]
    support = sizes.sum(axis=1)
    flat = cl.sorted_event_index[_concat_ranges(cl.seg_start[members].ravel(), sizes.ravel())]
    offsets = np.concatenate([[0], np.cumsum(support)]).astype(np.int64)
    cam = np.stack(unpack_pixels(key), axis=1).astype(np.int32)
    return CorrespondenceSet(cam, proj, support.astype(np.int32), cl.quality[members].min(axis=1), flat, offsets)


def intersect_sweeps(assignments: SweepAssignments, polarity_policy: str = "positive") -> CorrespondenceSet:
    """Pair vertical and horizontal sweep detections into (x_P, y_P) links.

    A camera pixel whose events form several well-separated position clusters
    in a sweep (a mixed direct + mirrored pixel) yields one candidate
    correspondence per vertical x horizontal cluster pair; downstream
    separation resolves which survive. Per cluster the median position is
    used; quality is 1 - spread / steps, taken from the worse cluster of the
    pair. Clusters arrive sorted by pixel key, so the pixels seen in both
    sweeps are found by ``searchsorted`` on each sweep's runs of equal keys.
    """
    cl = _cluster(assignments, polarity_policy)
    v_idx = np.flatnonzero(cl.sweep == SWEEP_VERTICAL)
    h_idx = np.flatnonzero(cl.sweep == SWEEP_HORIZONTAL)
    if len(v_idx) == 0 or len(h_idx) == 0:
        return _empty_correspondences()
    # clusters are already grouped by pixel key within each sweep, so vkeys
    # and hkeys are sorted; their first-of-run entries are the unique keys
    v_lo, v_hi, vkeys = _runs(cl.pixel_key[v_idx])
    h_lo, h_hi, hkeys = _runs(cl.pixel_key[h_idx])
    at = np.minimum(np.searchsorted(hkeys, vkeys), len(hkeys) - 1)
    in_both = hkeys[at] == vkeys
    v_lo, v_hi = v_lo[in_both], v_hi[in_both]
    h_lo, h_hi = h_lo[at[in_both]], h_hi[at[in_both]]
    nv = v_hi - v_lo
    nh = h_hi - h_lo

    # every vertical x horizontal cluster pair of a pixel, ordered by pixel,
    # then vertical cluster, then horizontal cluster
    pairs = nv * nh
    pixel = np.repeat(np.arange(len(pairs)), pairs)
    j = _concat_ranges(np.zeros_like(pairs), pairs)  # pair index within its pixel
    members = np.stack([v_idx[v_lo[pixel] + j // nh[pixel]], h_idx[h_lo[pixel] + j % nh[pixel]]], axis=1)
    return _build_set(cl, members, cl.median[members])


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
    lines = np.stack([x_c, y_c, np.ones(len(x_c))], axis=1) @ F  # rows: F^T p_C
    ok = np.abs(lines[:, 1]) > 1e-9 * np.hypot(lines[:, 0], lines[:, 1])
    y_p = np.where(ok, -(lines[:, 0] * cl.median + lines[:, 2]) / np.where(ok, lines[:, 1], 1.0), 0.0)
    return _build_set(cl, np.flatnonzero(ok)[:, None], np.stack([cl.median[ok], y_p[ok]], axis=1))
