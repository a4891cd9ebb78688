"""One repetition of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object as its last stdout line. Setup is
measured from ``--t0`` (the parent's CLOCK_MONOTONIC reading taken just
before spawning this process) to the first call into ``simulate_scan``; wall
and CPU time run from that call to the return of the workload's last layer
call. Output checks run afterwards and are not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


class _SetupDone(BaseException):
    """Raised at the first layer call of a --setup-only run; a BaseException so
    that run_pipeline's ``except Exception`` stage guard lets it through."""


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True, help="scratch run directory, removed afterwards")
    ap.add_argument("--spans", default=None, help="traced repetitions write their spans here")
    ap.add_argument("--setup-only", action="store_true", help="stop at the first layer call and report setup_s")
    args = ap.parse_args(argv)

    import eventscan
    from eventscan import simulate

    if not Path(eventscan.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"eventscan imported from {eventscan.__file__}, not from this checkout")

    run, check = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    rec = tracing.Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    undo = tracing.instrument(rec, stage_functions=args.workload == "mirror_run") if rec else []
    stage = rec.stage if rec else (lambda name: contextlib.nullcontext())

    mark = {}
    first_layer = simulate.simulate_scan

    @functools.wraps(first_layer)
    def marked(objects, camera, projector, schedule, *a, **kw):
        if not mark:
            mark["t"] = time.monotonic()
            mark["cpu"] = _cpu_s()
            mark["input"] = {"camera": f"{camera.width}x{camera.height}", "steps": schedule.steps_per_sweep}
            if args.setup_only:
                raise _SetupDone
        return first_layer(objects, camera, projector, schedule, *a, **kw)

    undo += tracing.rebind(first_layer, marked)
    result = {"ok": False, "errors": []}
    try:
        try:
            value = run(ROOT, args.seed, out, stage)
        except _SetupDone:
            print(json.dumps({"ok": True, "setup_s": mark["t"] - args.t0}))
            return 0
        t_end = time.monotonic()
        cpu_end = _cpu_s()
        peak = tracing.rss_mb()
        tracing.restore(undo)
        result.update(
            setup_s=mark["t"] - args.t0,
            wall_s=t_end - mark["t"],
            cpu_s=cpu_end - mark["cpu"],
            peak_rss_mb=peak,
            run_dir_mb=_dir_bytes(out) / 1e6,
        )
        counts, errors = check(ROOT, value, out)
        result.update(counts=counts, errors=errors, ok=not errors, input=dict(mark["input"], events=counts.get("events")))
        if rec:
            result["layers"] = tracing.layer_metrics(rec)
            result["trace_counts"] = {k: int(result["layers"][k]) for k in tracing.COUNTS}
            if args.spans:
                rec.dump(args.spans)
    except Exception:
        result["errors"].append(traceback.format_exc())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
