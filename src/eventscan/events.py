"""Event stream and ground-truth containers.

An event is one camera pixel change record ``(x, y, t, polarity)`` and is the
only sensor output of the rig. Streams are kept sorted by ``t`` with ties
broken by ``(y, x, polarity)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import formats

EVENT_COLUMNS = (("t_us", np.int64), ("x", np.int32), ("y", np.int32), ("polarity", np.int8))


@dataclass
class EventStream:
    t: np.ndarray  # int64, microseconds
    x: np.ndarray  # int32
    y: np.ndarray  # int32
    polarity: np.ndarray  # int8, +1 or -1

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.x = np.asarray(self.x, dtype=np.int32)
        self.y = np.asarray(self.y, dtype=np.int32)
        self.polarity = np.asarray(self.polarity, dtype=np.int8)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.polarity) == n):
            raise ValueError("event columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    @staticmethod
    def empty() -> "EventStream":
        z = np.zeros(0)
        return EventStream(z, z, z, z)

    def sort_order(self) -> np.ndarray:
        """Canonical order: t, then y, x, polarity; equal events keep their order.

        One stable argsort of a packed uint64 key, each field offset by its
        minimum and given the bits its span needs; ``np.lexsort`` when the
        spans need more than 64 bits together.
        """
        keys = (self.t, self.y, self.x, self.polarity)
        lows = [int(k.min()) for k in keys] if len(self) else []
        bits = [(int(k.max()) - lo).bit_length() for k, lo in zip(keys, lows)]
        if not lows or sum(bits) > 64:
            return np.lexsort(keys[::-1])
        packed = np.zeros(len(self), dtype=np.uint64)
        for k, lo, b in zip(keys, lows, bits):
            packed <<= np.uint64(b)
            offset = k.astype(np.int64)
            # int64 arithmetic wraps, so the uint64 view is the true offset
            offset -= np.int64(lo)
            packed |= offset.view(np.uint64)
        return np.argsort(packed, kind="stable")

    def take(self, order: np.ndarray) -> "EventStream":
        return EventStream(self.t[order], self.x[order], self.y[order], self.polarity[order])

    def save_text(self, path) -> None:
        formats.write_table(path, EVENT_COLUMNS, [self.t, self.x, self.y, self.polarity])

    @staticmethod
    def load_text(path) -> "EventStream":
        return EventStream(*formats.read_table(path, EVENT_COLUMNS)[1])

    def save_binary(self, path) -> None:
        formats.write_event_binary(path, self.t, self.x, self.y, self.polarity)

    @staticmethod
    def load_binary(path) -> "EventStream":
        t, x, y, p = formats.read_event_binary(path)
        return EventStream(t, x, y, p)


SWEEP_VERTICAL = 0
SWEEP_HORIZONTAL = 1
SWEEP_RASTER = 2


# Per-path column -> value it reads as for a spurious event (path -1).
UNANNOTATED = {"bounce": 0, "surface_point": np.nan, "object_label": -1, "projector_pixel": np.nan, "on_epipolar": False}

# ground_truth.txt: one row per light path, the columns of UNANNOTATED in its
# order; the row number is the path index
PATH_COLUMNS = (
    ("bounce", np.int16), (("sx", "sy", "sz"), np.float64), ("label", np.int32),
    (("px", "py"), np.float64), ("on_epipolar", ("false", "true")),
)
# ground_truth_events.txt: one row per event; path -1 marks a spurious event
EVENT_TRUTH_COLUMNS = (("path", np.int32), ("sweep", np.int8), ("step", np.int32))


def step_time(schedule, sweep: int, step) -> np.ndarray:
    """Schedule time of projector ``step`` in ``sweep``, the projector-side
    timestamp: a raster step is timed from where sweep 0 starts."""
    return schedule.step_time(SWEEP_VERTICAL if sweep == SWEEP_RASTER else sweep, step)


def check_label(label: str) -> None:
    """ValueError unless the ground truth's ``# labels:`` line can carry the
    object label ``label``: the line is split at whitespace, and ``-`` alone
    stands for no labels."""
    if label.split() != [label] or label == "-":
        raise ValueError(f"label {label!r} must be one token without whitespace, and not '-'")


@dataclass
class GroundTruth:
    """Simulator annotations: one row per light path, one path index per event.

    A light path's ON and OFF events, in every sweep, share one annotation
    row; ``path`` maps each event to it, and spurious noise events have path
    -1 (see ``UNANNOTATED`` for what they read as). ``bounce`` is >= 1. For
    two-bounce reflections ``surface_point`` and ``projector_pixel`` describe
    the first (diffuse) bounce, which is what the deflectometry screen lookup
    needs. ``on_epipolar`` flags multi-bounce paths that nevertheless land
    within 2 px of their epipolar line (the acknowledged rare exception).

    Per event, ``sweep`` and ``step`` name the projector step that caused it
    (-1 for spurious events); ``step_time_us`` times it on the scan schedule.
    """

    bounce: np.ndarray  # int16, per path
    surface_point: np.ndarray  # (P, 3) float64
    object_label: np.ndarray  # int32 index into labels
    projector_pixel: np.ndarray  # (P, 2) float64 continuous
    on_epipolar: np.ndarray  # bool
    path: np.ndarray  # int32 per event, -1 for spurious events
    sweep: np.ndarray  # int8: 0 vertical, 1 horizontal, 2 raster, -1 none
    step: np.ndarray  # int32 projector step index, -1 none
    labels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.bounce = np.asarray(self.bounce, dtype=np.int16)
        self.surface_point = np.asarray(self.surface_point, dtype=np.float64).reshape(-1, 3)
        self.object_label = np.asarray(self.object_label, dtype=np.int32)
        self.projector_pixel = np.asarray(self.projector_pixel, dtype=np.float64).reshape(-1, 2)
        self.on_epipolar = np.asarray(self.on_epipolar, dtype=bool)
        self.path = np.asarray(self.path, dtype=np.int32)
        self.sweep = np.asarray(self.sweep, dtype=np.int8)
        self.step = np.asarray(self.step, dtype=np.int32)
        self.labels = tuple(self.labels)
        if len({len(getattr(self, name)) for name in UNANNOTATED}) > 1:
            raise ValueError("path columns must have equal length")
        if not (len(self.sweep) == len(self.step) == len(self.path)):
            raise ValueError("event columns must have equal length")

    def __len__(self) -> int:
        """Number of events."""
        return len(self.path)

    def per_event(self, name: str, ids=slice(None)) -> np.ndarray:
        """Path column ``name`` read at events ``ids`` (all by default)."""
        col = getattr(self, name)
        fill = np.full((1,) + col.shape[1:], UNANNOTATED[name], dtype=col.dtype)
        # path -1 reads the appended fill row
        return np.concatenate([col, fill])[self.path[ids]]

    def step_time_us(self, schedule) -> np.ndarray:
        """Each event's projector-side timestamp on ``schedule`` (``step_time``); -1 for a spurious event."""
        out = np.full(len(self), -1, dtype=np.int64)
        for sweep in (SWEEP_VERTICAL, SWEEP_HORIZONTAL, SWEEP_RASTER):
            at = self.sweep == sweep
            out[at] = step_time(schedule, sweep, self.step[at])
        return out

    def take(self, order: np.ndarray) -> "GroundTruth":
        """The events ``order`` selects, sharing this object's paths."""
        return replace(self, path=self.path[order], sweep=self.sweep[order], step=self.step[order])

    def refusal(self) -> tuple | None:
        """``(file, row, what it has)`` of the first row that ``load_text``
        refuses, ``file`` 0 for the light paths and 1 for the events; None
        when every row is kept.

        Refused are a path with bounce < 1, and an event whose path is
        outside [-1, number of paths), whose sweep is outside {-1, 0, 1, 2},
        or whose path, sweep and step are neither all -1 nor all >= 0.
        """
        bounce, path, sweep, step = self.bounce, self.path, self.sweep, self.step
        # each mask is made when its turn comes, so one is held at a time:
        # save_text runs this just before the write that peaks in memory
        for file, bad, says in (
            (0, lambda: bounce < 1, lambda i: f"bounce {bounce[i]}; a light path has bounce >= 1"),
            (1, lambda: (path < -1) | (path >= len(bounce)), lambda i: f"path {path[i]}, outside [-1, {len(bounce)})"),
            (1, lambda: (sweep < -1) | (sweep > SWEEP_RASTER), lambda i: f"sweep {sweep[i]}, outside {{-1, 0, 1, 2}}"),
            (
                1,
                lambda: np.where(path == -1, (sweep != -1) | (step != -1), (sweep < 0) | (step < 0)),
                lambda i: f"path {path[i]}, sweep {sweep[i]}, step {step[i]}; they are all -1 or all >= 0",
            ),
        ):
            bad = np.flatnonzero(bad())
            if len(bad):
                return file, int(bad[0]), says(bad[0])
        return None

    def save_text(self, path, events_path) -> None:
        """One row per light path to ``path``, one row per event to ``events_path``.

        ValueError, before either file is opened, for a label that the
        ``# labels:`` line cannot carry (see ``check_label``) or a row that
        ``load_text`` would refuse (see ``refusal``).
        """
        for label in self.labels:
            check_label(label)
        refused = self.refusal()
        if refused:
            file, row, says = refused
            raise ValueError(f"{(path, events_path)[file]}: row {row + 1} would have {says}")
        header = "labels: " + (" ".join(self.labels) if self.labels else "-")
        formats.write_table(path, PATH_COLUMNS, [getattr(self, name) for name in UNANNOTATED], header=header)
        formats.write_table(events_path, EVENT_TRUTH_COLUMNS, [self.path, self.sweep, self.step])

    @staticmethod
    def load_text(path, events_path) -> "GroundTruth":
        """The ``GroundTruth`` that ``save_text`` wrote; FormatError for a row
        that ``refusal`` names."""
        labels: tuple = ()
        with formats.open_text(path) as f:
            first = f.readline().strip()
        if first.startswith("# labels:"):
            rest = first[len("# labels:") :].split()
            labels = tuple(rest) if rest != ["-"] else ()
        _, paths = formats.read_table(path, PATH_COLUMNS)
        _, events = formats.read_table(events_path, EVENT_TRUTH_COLUMNS)
        truth = GroundTruth(*paths, *events, labels)
        refused = truth.refusal()
        if refused:
            file, row, says = refused
            raise formats.FormatError(f"{(path, events_path)[file]}: row {row + 1} has {says}")
        return truth
