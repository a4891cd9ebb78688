"""Event stream and ground-truth containers.

An event is one camera pixel change record ``(x, y, t, polarity)`` and is the
only sensor output of the rig. Streams are kept sorted by ``t`` with ties
broken by ``(y, x, polarity)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats


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
        """Canonical order: t, then y, x, polarity."""
        return np.lexsort((self.polarity, self.x, self.y, self.t))

    def is_sorted(self) -> bool:
        order = self.sort_order()
        return bool(np.all(order == np.arange(len(self))))

    def take(self, order: np.ndarray) -> "EventStream":
        return EventStream(self.t[order], self.x[order], self.y[order], self.polarity[order])

    def save_text(self, path) -> None:
        formats.write_table(path, ["t_us", "x", "y", "polarity"], [self.t, self.x, self.y, self.polarity])

    @staticmethod
    def load_text(path) -> "EventStream":
        _, cols = formats.read_table(path, ["t_us", "x", "y", "polarity"], [np.int64, np.int32, np.int32, np.int8])
        return EventStream(*cols)

    def save_binary(self, path) -> None:
        formats.write_event_binary(path, self.t, self.x, self.y, self.polarity)

    @staticmethod
    def load_binary(path) -> "EventStream":
        t, x, y, p = formats.read_event_binary(path)
        return EventStream(t, x, y, p)


SWEEP_VERTICAL = 0
SWEEP_HORIZONTAL = 1
SWEEP_RASTER = 2


@dataclass
class GroundTruth:
    """Per-event annotations for simulator output, keyed by event index.

    ``bounce`` is 0 for spurious noise events (no annotation). For two-bounce
    reflections ``surface_point`` and ``projector_pixel`` describe the first
    (diffuse) bounce, which is what the deflectometry screen lookup needs.
    ``on_epipolar`` flags multi-bounce events that nevertheless land within
    2 px of their epipolar line (the acknowledged rare exception).
    ``step_time_us`` is the schedule time of the projector step that caused
    the event: the projector-side timestamp.
    """

    bounce: np.ndarray  # int16; 0 = unannotated noise
    surface_point: np.ndarray  # (N, 3) float64, nan when unannotated
    object_label: np.ndarray  # int32 index into labels, -1 when unannotated
    projector_pixel: np.ndarray  # (N, 2) float64 continuous, nan when unannotated
    on_epipolar: np.ndarray  # bool
    sweep: np.ndarray  # int8: 0 vertical, 1 horizontal, 2 raster, -1 none
    step: np.ndarray  # int32 projector step index, -1 none
    step_time_us: np.ndarray  # int64, -1 none
    labels: tuple = field(default_factory=tuple)

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

    def __len__(self) -> int:
        return len(self.bounce)

    @property
    def annotated(self) -> np.ndarray:
        return self.bounce > 0

    def take(self, order: np.ndarray) -> "GroundTruth":
        return GroundTruth(
            self.bounce[order],
            self.surface_point[order],
            self.object_label[order],
            self.projector_pixel[order],
            self.on_epipolar[order],
            self.sweep[order],
            self.step[order],
            self.step_time_us[order],
            self.labels,
        )

    def save_text(self, path) -> None:
        idx = np.arange(len(self))
        header = "labels: " + (" ".join(self.labels) if self.labels else "-")
        formats.write_table(
            path,
            ["event", "bounce", "sx", "sy", "sz", "label", "px", "py", "on_epipolar", "sweep", "step", "step_time_us"],
            [
                idx,
                self.bounce,
                self.surface_point[:, 0],
                self.surface_point[:, 1],
                self.surface_point[:, 2],
                self.object_label,
                self.projector_pixel[:, 0],
                self.projector_pixel[:, 1],
                self.on_epipolar,
                self.sweep,
                self.step,
                self.step_time_us,
            ],
            header=header,
        )

    @staticmethod
    def load_text(path) -> "GroundTruth":
        labels: tuple = ()
        with open(path) as f:
            first = f.readline().strip()
        if first.startswith("# labels:"):
            rest = first[len("# labels:") :].split()
            labels = tuple(rest) if rest != ["-"] else ()
        _, cols = formats.read_table(
            path,
            ["event", "bounce", "sx", "sy", "sz", "label", "px", "py", "on_epipolar", "sweep", "step", "step_time_us"],
            [np.int64, np.int16, float, float, float, np.int32, float, float, ("false", "true"),
             np.int8, np.int32, np.int64],
        )
        return GroundTruth(
            cols[1],
            np.stack(cols[2:5], axis=1),
            cols[5],
            np.stack(cols[6:8], axis=1),
            cols[8],
            cols[9],
            cols[10],
            cols[11],
            labels,
        )
