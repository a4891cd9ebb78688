"""Spans around eventscan's layers, recorded from outside the package.

``Recorder`` keeps spans (name, layer, start, end, parent, run id) in memory
and turns them into per-layer busy and self times. ``instrument`` wraps the
public functions of each module and rebinds every module-level name that
refers to the original function, so a caller that did ``from .x import f``
calls the wrapper too. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# Layer self times reported by the traced run, one per eventscan module that
# the workloads reach. ``geometry`` runs inside the others and is not wrapped;
# ``calibrate`` is on no pipeline path; ``events`` I/O methods count as formats.
LAYERS = ("simulate", "decode", "separate", "triangulate", "deflect", "metrics", "formats", "scene", "pipeline", "cli")
STAGES = ("simulate", "decode", "separate", "triangulate", "deflect", "metrics")
BUSY_GROUPS = (
    "simulate.busy", "decode.assign_busy", "decode.intersect_busy", "separate.busy", "triangulate.busy",
    "triangulate.screen_busy", "deflect.bind_busy", "deflect.shape_busy", "metrics.busy",
    "metrics.truth_class_busy", "formats.write_busy", "formats.read_busy", "scene.load_busy",
)
# Deterministic counts: a traced run fails when any of them differs between
# its traced repetitions.
COUNTS = (
    "simulate.events", "decode.assigned", "decode.correspondences", "decode.mixed_pixels",
    "separate.direct", "separate.indirect", "separate.rejected",
    "triangulate.points", "triangulate.dropped", "triangulate.screen_entries",
    "deflect.bound", "deflect.uncovered", "deflect.iterations", "deflect.converged",
    "formats.bytes_written", "formats.bytes_read", "formats.files_written",
)


def rss_mb() -> float:
    """High-water resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "layer", "stage", "groups", "outer", "parent", "child_s", "start", "end")

    def __init__(self, name, layer, stage, groups, outer, parent):
        self.name = name
        self.layer = layer
        self.stage = stage
        self.groups = groups
        self.outer = outer  # groups this span is the outermost open span of
        self.parent = parent
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = None


class Recorder:
    """In-memory span store for one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stage_wall: dict[str, float] = defaultdict(float)
        self.stage_rss: dict[str, float] = {}
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str, layer: str | None, groups=(), stage: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        # a group's busy time is the union of its spans, so only the
        # outermost open span of a group adds its duration
        outer = tuple(g for g in groups if self._depth[g] == 0)
        for g in groups:
            self._depth[g] += 1
        self.spans.append(Span(name, layer, stage, groups, outer, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        dur = span.end - span.start
        for g in span.groups:
            self._depth[g] -= 1
        for g in span.outer:
            self.busy[g] += dur
        if span.layer is not None:
            self.self_s[span.layer] += dur - span.child_s
        if span.parent is not None:
            self.spans[span.parent].child_s += dur
        if span.stage is not None:
            self.stage_wall[span.stage] += dur
            self.stage_rss[span.stage] = rss_mb()

    @contextlib.contextmanager
    def stage(self, name: str):
        """A stage span opened by the workload itself."""
        idx = self.open(f"stage.{name}", None, stage=name)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path) -> None:
        """Write every span as one JSON line; times are seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "layer": s.layer, "start": s.start - t0,
                                    "end": s.end - t0, "parent": s.parent, "run_id": self.run_id}) + "\n")


def rebind(original, replacement) -> list:
    """Point every eventscan module-level name bound to ``original`` at ``replacement``.

    Returns (namespace, name, original) triples for ``restore``.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "eventscan" and not modname.startswith("eventscan."):
            continue
        ns = vars(mod)
        for name, value in list(ns.items()):
            if value is original:
                ns[name] = replacement
                undo.append((ns, name, original))
    return undo


def restore(undo: list) -> None:
    for owner, name, value in reversed(undo):
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)


def _path_arg(args, kwargs):
    p = kwargs.get("path", kwargs.get("file", args[0] if args else None))
    return os.fspath(p) if p is not None else None


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _set(**getters):
    """After-hook storing counts of the returned value; the last call wins."""

    def hook(rec, args, kwargs, out):
        for key, get in getters.items():
            rec.counts[key] = int(get(out))

    return hook


def _mixed_pixels(corr) -> int:
    if len(corr) == 0:
        return 0
    key = (corr.camera_pixel[:, 1].astype(np.int64) << 20) | corr.camera_pixel[:, 0].astype(np.int64)
    _, n = np.unique(key, return_counts=True)
    return int((n > 1).sum())


def _wrote(rec, args, kwargs, out):
    path = _path_arg(args, kwargs)
    if path is not None and not os.path.exists(path) and os.path.exists(path + ".npy"):
        path += ".npy"  # np.save appends the suffix
    rec.counts["formats.bytes_written"] += _size(path)
    rec.counts["formats.files_written"] += 1


def _read(rec, args, kwargs):
    rec.counts["formats.bytes_read"] += _size(_path_arg(args, kwargs))


def _wrap(rec: Recorder, owner, attr: str, layer: str, groups=(), stage=None, before=None, after=None) -> list:
    """Replace ``owner.attr`` (module function, numpy function or method) by a span wrapper."""
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        name = f"{layer}.{owner.__name__}.{attr}"
    else:
        fn = getattr(owner, attr)
        name = f"{layer}.{attr}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.open(name, layer, groups, stage)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    if isinstance(owner, type):
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        return [(owner, attr, raw)]
    undo = rebind(fn, wrapper)
    if getattr(owner, attr) is fn:  # owner outside eventscan: numpy
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, fn))
    return undo


def instrument(rec: Recorder, stage_functions: bool) -> list:
    """Wrap every layer entry point the workloads reach; returns the undo list.

    With ``stage_functions`` the ``pipeline.stage_*`` calls are the stage
    spans (a ``run_pipeline`` workload); otherwise the workload opens its own
    stage spans with ``Recorder.stage``.
    """
    from eventscan import cli, decode, deflectometry, events, formats, metrics, pipeline, scene, separate, simulate, triangulate

    corr_counts = _set(**{"decode.correspondences": len, "decode.mixed_pixels": _mixed_pixels})
    undo = []

    def wrap(*a, **kw):
        undo.extend(_wrap(rec, *a, **kw))

    wrap(simulate, "simulate_scan", "simulate", ("simulate.busy",), after=_set(**{"simulate.events": lambda r: len(r.events)}))
    wrap(decode, "assign_sweeps", "decode", ("decode.assign_busy",), after=_set(**{"decode.assigned": len}))
    wrap(decode, "intersect_sweeps", "decode", ("decode.intersect_busy",), after=corr_counts)
    wrap(decode, "intersect_single_sweep", "decode", ("decode.intersect_busy",), after=corr_counts)
    wrap(separate, "epipolar_classify", "separate", ("separate.busy",))
    wrap(separate, "resolve_mixed_pixels", "separate", ("separate.busy",), after=_set(**{
        f"separate.{name}": lambda c, label=label: (c.label == label).sum()
        for name, label in (("direct", separate.DIRECT), ("indirect", separate.INDIRECT), ("rejected", separate.REJECTED))}))
    wrap(triangulate, "triangulate_direct", "triangulate", ("triangulate.busy",), after=_set(**{
        "triangulate.points": len, "triangulate.dropped": lambda c: c.dropped_gap + c.dropped_unstable}))
    wrap(triangulate, "build_virtual_screen", "triangulate", ("triangulate.busy", "triangulate.screen_busy"),
         after=_set(**{"triangulate.screen_entries": len}))
    wrap(deflectometry, "bind_screen", "deflect", ("deflect.bind_busy",),
         after=_set(**{"deflect.bound": len, "deflect.uncovered": lambda b: b.uncovered}))
    wrap(deflectometry, "iterative_shape", "deflect", ("deflect.shape_busy",), after=_set(**{
        "deflect.iterations": lambda r: r[0].iterations, "deflect.converged": lambda r: r[0].converged}))
    wrap(metrics, "truth_class_of", "metrics", ("metrics.busy", "metrics.truth_class_busy"))
    for attr in ("classification_score", "fit_plane", "fit_sphere", "precision"):
        wrap(metrics, attr, "metrics", ("metrics.busy",))
    wrap(pipeline, "load_config", "scene", ("scene.load_busy",))
    wrap(scene, "load_scene", "scene", ("scene.load_busy",))
    wrap(scene, "load_calibration_bundle", "scene", ("scene.load_busy",))
    wrap(pipeline, "run_pipeline", "pipeline")
    for name in STAGES:
        wrap(pipeline, f"stage_{name}", "pipeline", stage=name if stage_functions else None)
    wrap(cli, "main", "cli")

    # Artifact I/O. The byte-level primitives count bytes and files; the
    # save_*/load_* methods above them only add time to the same groups.
    for attr in ("write_table", "write_ply", "write_pfm", "write_sections", "write_event_binary"):
        wrap(formats, attr, "formats", ("formats.write_busy",), after=_wrote)
    wrap(np, "save", "formats", ("formats.write_busy",), after=_wrote)
    for attr in ("read_table", "read_ply", "read_pfm", "read_sections", "read_event_binary"):
        wrap(formats, attr, "formats", ("formats.read_busy",), before=_read)
    wrap(np, "load", "formats", ("formats.read_busy",), before=_read)
    for owner, attr in ((events.EventStream, "save_text"), (events.EventStream, "save_binary"),
                        (events.GroundTruth, "save_text"), (decode.CorrespondenceSet, "save_text"),
                        (separate.ClassifiedSet, "save_text"), (triangulate.DiffuseCloud, "save_ply"),
                        (triangulate.VirtualScreen, "save_text"), (deflectometry.NormalMap, "save_pfm"),
                        (deflectometry.SurfaceEstimate, "save_residuals"), (scene, "save_calibration_bundle")):
        wrap(owner, attr, "formats", ("formats.write_busy",))
    for owner, attr in ((events.EventStream, "load_text"), (events.EventStream, "load_binary"),
                        (events.GroundTruth, "load_text"), (decode.CorrespondenceSet, "load_text"),
                        (separate.ClassifiedSet, "load_text"), (triangulate.DiffuseCloud, "load_ply")):
        wrap(owner, attr, "formats", ("formats.read_busy",))
    return undo


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name."""
    c = rec.counts
    out = {f"{g}_s": rec.busy.get(g, 0.0) for g in BUSY_GROUPS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    for name in STAGES:
        out[f"stage.{name}.wall_s"] = rec.stage_wall.get(name, 0.0)
        out[f"stage.{name}.rss_mb"] = rec.stage_rss.get(name, 0.0)
    for key in COUNTS:
        out[key] = float(c.get(key, 0))
    out["decode.kept_frac"] = c["decode.assigned"] / c["simulate.events"] if c.get("simulate.events") else 0.0
    out["triangulate.screen_fill"] = (
        c["triangulate.screen_entries"] / c["triangulate.points"] if c.get("triangulate.points") else 0.0
    )
    out["trace.spans"] = float(len(rec.spans))
    return out
