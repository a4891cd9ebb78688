"""Decode an event stream into per-camera-pixel projector correspondences.

Each event timestamp is mapped to a sweep window and a continuous sweep
position ``(t - sweep_start) * steps / duration``; the integer part is the
projector step index, the fraction is the sub-step residual carried by the
timestamp. Per camera pixel, positions from repeated events are clustered
(a shiny pixel sees both its own illumination and a mirrored one), each
cluster is aggregated by its median, and vertical x horizontal cluster pairs
become correspondences ``(x_P, y_P)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats
from .events import SWEEP_HORIZONTAL, SWEEP_VERTICAL, EventStream
from .scene import ScanSchedule

_KEY_SHIFT = 20  # pixel key packing: key = (y << _KEY_SHIFT) | x


@dataclass
class SweepAssignments:
    """Per-event sweep labels for events inside sweep windows."""

    event_index: np.ndarray  # index into the source stream
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray
    sweep: np.ndarray  # SWEEP_VERTICAL or SWEEP_HORIZONTAL
    index: np.ndarray  # integer projector step
    position: np.ndarray  # continuous sweep position in steps
    residual_us: np.ndarray  # time offset within the step
    steps_per_sweep: int = 0
    discarded_recovery: int = 0
    outside_window: int = 0

    def __len__(self) -> int:
        return len(self.event_index)


def assign_sweeps(events: EventStream, schedule: ScanSchedule, scan_start_us: int, n_sweeps: int = 2) -> SweepAssignments:
    """Label every event with its sweep and projector step.

    Events inside recovery windows are discarded and counted; events outside
    the scan window entirely are counted as ``outside_window``.
    """
    t = events.t
    steps = schedule.steps_per_sweep
    duration = schedule.sweep_duration_us
    sweep = np.full(len(t), -1, dtype=np.int8)
    position = np.zeros(len(t), dtype=np.float64)
    in_recovery = np.zeros(len(t), dtype=bool)
    for s in range(n_sweeps):
        start = scan_start_us + s * (duration + schedule.recovery_us)
        inside = (t >= start) & (t < start + duration)
        sweep[inside] = s
        position[inside] = (t[inside] - start) * steps / duration
        rec = (t >= start + duration) & (t < start + duration + schedule.recovery_us)
        in_recovery |= rec
    keep = sweep >= 0
    index = np.clip(np.floor(position[keep]).astype(np.int32), 0, steps - 1)
    sweep_start = scan_start_us + sweep[keep].astype(np.int64) * (duration + schedule.recovery_us)
    residual = t[keep] - (sweep_start + index * schedule.step_us)
    return SweepAssignments(
        event_index=np.where(keep)[0],
        x=events.x[keep],
        y=events.y[keep],
        polarity=events.polarity[keep],
        sweep=sweep[keep],
        index=index,
        position=position[keep],
        residual_us=residual,
        steps_per_sweep=steps,
        discarded_recovery=int(in_recovery.sum()),
        outside_window=int((~keep & ~in_recovery).sum()),
    )


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


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    lens = (stops - starts).astype(np.int64)
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


def _select_timing_events(a: SweepAssignments, policy: str):
    """Event selection per polarity policy, with -1 positions shifted back one step."""
    if policy == "positive":
        keep = a.polarity > 0
    elif policy == "negative":
        keep = a.polarity < 0
    elif policy == "both":
        keep = np.ones(len(a), dtype=bool)
    else:
        raise ValueError(f"unknown polarity policy {policy!r}")
    position = np.where(a.polarity < 0, a.position - 1.0, a.position)
    return keep, position


@dataclass
class _Clusters:
    """Contiguous position clusters per (pixel, sweep), ready for pairing."""

    pixel_key: np.ndarray
    sweep: np.ndarray
    median: np.ndarray
    spread: np.ndarray
    size: np.ndarray
    seg_start: np.ndarray  # ranges into sorted_event_index
    seg_stop: np.ndarray
    sorted_event_index: np.ndarray


def _cluster(a: SweepAssignments, keep: np.ndarray, position: np.ndarray, gap: float) -> _Clusters:
    key = (a.y[keep].astype(np.int64) << _KEY_SHIFT) | a.x[keep].astype(np.int64)
    sweep = a.sweep[keep].astype(np.int64)
    pos = position[keep]
    ev = a.event_index[keep]
    order = np.lexsort((pos, sweep, key))
    key, sweep, pos, ev = key[order], sweep[order], pos[order], ev[order]
    n = len(key)
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return _Clusters(z, z, np.zeros(0), np.zeros(0), z, z, z, z)
    brk = np.ones(n, dtype=bool)
    brk[1:] = (key[1:] != key[:-1]) | (sweep[1:] != sweep[:-1]) | (np.diff(pos) > gap)
    starts = np.where(brk)[0]
    stops = np.concatenate([starts[1:], [n]])
    sizes = stops - starts
    med_at = starts + (sizes - 1) // 2  # lower middle on ties
    return _Clusters(
        pixel_key=key[starts],
        sweep=sweep[starts],
        median=pos[med_at],
        spread=pos[stops - 1] - pos[starts],
        size=sizes,
        seg_start=starts,
        seg_stop=stops,
        sorted_event_index=ev,
    )


def _build_set(cam_keys, proj, support, quality, seg_starts, seg_stops, sorted_event_index) -> CorrespondenceSet:
    """Assemble a canonical, deterministically ordered correspondence set.

    ``seg_starts``/``seg_stops`` hold one or two (start, stop) ranges per row
    into ``sorted_event_index``.
    """
    cam_keys = np.asarray(cam_keys, dtype=np.int64)
    proj = np.asarray(proj, dtype=np.float64).reshape(-1, 2)
    order = _sort_by_key(cam_keys, proj[:, 1], proj[:, 0])
    cam_keys = cam_keys[order]
    proj = proj[order]
    support = np.asarray(support, dtype=np.int32)[order]
    quality = np.asarray(quality, dtype=np.float64)[order]
    seg_starts = np.asarray(seg_starts, dtype=np.int64).reshape(len(order), -1)[order]
    seg_stops = np.asarray(seg_stops, dtype=np.int64).reshape(len(order), -1)[order]
    flat = sorted_event_index[_concat_ranges(seg_starts.ravel(), seg_stops.ravel())]
    row_lens = (seg_stops - seg_starts).sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(row_lens)]).astype(np.int64)
    cam = np.stack([cam_keys & ((1 << _KEY_SHIFT) - 1), cam_keys >> _KEY_SHIFT], axis=1).astype(np.int32)
    return CorrespondenceSet(cam, proj, support, quality, flat, offsets)


def intersect_sweeps(
    assignments: SweepAssignments,
    polarity_policy: str = "positive",
    cluster_gap: float | None = None,
) -> CorrespondenceSet:
    """Pair vertical and horizontal sweep detections into (x_P, y_P) links.

    A camera pixel whose events form several well-separated position clusters
    in a sweep (a mixed direct + mirrored pixel) yields one candidate
    correspondence per vertical x horizontal cluster pair; downstream
    separation resolves which survive. Per cluster the median position is
    used; quality is 1 - spread / steps, taken from the worse cluster of the
    pair. Clusters arrive sorted by pixel key, so the pixels seen in both
    sweeps are found by ``searchsorted`` on each sweep's runs of equal keys.
    """
    steps = assignments.steps_per_sweep
    if cluster_gap is None:
        cluster_gap = max(2.0, 0.005 * steps)
    keep, position = _select_timing_events(assignments, polarity_policy)
    cl = _cluster(assignments, keep, position, gap=cluster_gap)

    v_idx = np.where(cl.sweep == SWEEP_VERTICAL)[0]
    h_idx = np.where(cl.sweep == SWEEP_HORIZONTAL)[0]
    if len(v_idx) == 0 or len(h_idx) == 0:
        return _empty_correspondences()
    # clusters are already grouped by pixel key within each sweep, so vkeys
    # and hkeys are sorted; their first-of-run entries are the unique keys
    v_lo, v_hi, vkeys = _runs(cl.pixel_key[v_idx])
    h_lo, h_hi, hkeys = _runs(cl.pixel_key[h_idx])
    at = np.minimum(np.searchsorted(hkeys, vkeys), len(hkeys) - 1)
    in_both = hkeys[at] == vkeys
    if not np.any(in_both):
        return _empty_correspondences()
    common = vkeys[in_both]
    v_lo, v_hi = v_lo[in_both], v_hi[in_both]
    h_lo, h_hi = h_lo[at[in_both]], h_hi[at[in_both]]
    nv = v_hi - v_lo
    nh = h_hi - h_lo

    # every vertical x horizontal cluster pair of a pixel, ordered by pixel,
    # then vertical cluster, then horizontal cluster
    pairs = nv * nh
    pixel = np.repeat(np.arange(len(common)), pairs)
    j = _concat_ranges(np.zeros_like(pairs), pairs)  # pair index within its pixel
    vi = v_idx[v_lo[pixel] + j // nh[pixel]]
    hi = h_idx[h_lo[pixel] + j % nh[pixel]]
    spread = np.maximum(cl.spread[vi], cl.spread[hi])
    return _build_set(
        common[pixel],
        np.stack([cl.median[vi], cl.median[hi]], axis=1),
        cl.size[vi] + cl.size[hi],
        np.maximum(0.0, 1.0 - spread / steps),
        np.stack([cl.seg_start[vi], cl.seg_start[hi]], axis=1),
        np.stack([cl.seg_stop[vi], cl.seg_stop[hi]], axis=1),
        cl.sorted_event_index,
    )


def intersect_single_sweep(
    assignments: SweepAssignments,
    F: np.ndarray,
    polarity_policy: str = "positive",
    cluster_gap: float | None = None,
) -> CorrespondenceSet:
    """Diffuse-only decoding from the vertical sweep alone.

    The sweep gives x_P; y_P comes from the epipolar constraint: the
    projector point of camera pixel p_C lies on the line F^T p_C, which is
    intersected with the column x = x_P. Support counts vertical events only,
    so it may be 1. Pixels whose projector epipolar line is near-parallel to
    the columns are skipped (y_P unidentifiable from a vertical sweep).
    """
    steps = assignments.steps_per_sweep
    if cluster_gap is None:
        cluster_gap = max(2.0, 0.005 * steps)
    keep, position = _select_timing_events(assignments, polarity_policy)
    keep = keep & (assignments.sweep == SWEEP_VERTICAL)
    cl = _cluster(assignments, keep, position, gap=cluster_gap)
    if len(cl.pixel_key) == 0:
        return _empty_correspondences()
    x_c = (cl.pixel_key & ((1 << _KEY_SHIFT) - 1)).astype(np.float64)
    y_c = (cl.pixel_key >> _KEY_SHIFT).astype(np.float64)
    lines = np.stack([x_c, y_c, np.ones_like(x_c)], axis=1) @ F  # rows: F^T p_C
    ok = np.abs(lines[:, 1]) > 1e-9 * np.hypot(lines[:, 0], lines[:, 1])
    y_p = np.where(ok, -(lines[:, 0] * cl.median + lines[:, 2]) / np.where(ok, lines[:, 1], 1.0), 0.0)
    return _build_set(
        cl.pixel_key[ok],
        np.stack([cl.median[ok], y_p[ok]], axis=1),
        cl.size[ok],
        np.maximum(0.0, 1.0 - cl.spread[ok] / steps),
        np.stack([cl.seg_start[ok]], axis=1),
        np.stack([cl.seg_stop[ok]], axis=1),
        cl.sorted_event_index,
    )
