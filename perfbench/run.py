"""eventscan benchmark: closed loop, one client, one repetition at a time.

    python3 perfbench/run.py --workload sphere_staged --seed 1 --seconds 55 --trace 0

Each repetition runs in a fresh interpreter (perfbench/rep.py) and is checked
for correct output. Repetitions run one after another for about ``--seconds``:
another starts only while the run would end nearer to ``--seconds`` with it
than without it, judged by the median length of the rounds so far.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates traced
and untraced repetitions (traced first, at least two traced and one untraced)
and reports the per-layer metrics. Lines starting with ``#`` are for people;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("mirror_run", "sphere_staged", "hd_memory")
NEEDED = ("src/eventscan/__init__.py", "configs/plane_mirror.cfg", "configs/specular_sphere.cfg",
          "scenes/plane_mirror.scene", "scenes/specular_sphere.scene")
# set-up-only children started before each repetition, so setup_s is a
# median of several set-ups spread over the run
SETUP_PROBES_PER_REP = 2
REP_TIMEOUT_S = 170

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = _blas_threads()
    facts["run_dir_fs"] = _filesystem_of(WORK)
    return facts


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded into this process, if it exports one."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            fields = line.split()
            mnt = fields[1]
            if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                best, fstype = mnt, fields[2]
    except OSError:
        pass
    return f"{fstype} on {best}" if best else fstype


def _child(args: list) -> dict:
    """Run rep.py once; a crash, timeout or unparsable output is a failed repetition."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), "--t0", repr(t0)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("errors", []).append(f"exit {proc.returncode}")
    return result


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def _check_counts(rep: dict, expected: dict, first_trace: dict | None) -> None:
    """Mark the repetition failed when a count differs from the reference or an earlier traced one."""
    if not rep.get("ok"):
        return
    errors = [f"{k} = {rep['counts'].get(k)}, reference {v}" for k, v in expected.items() if rep["counts"].get(k) != v]
    if first_trace is not None and "trace_counts" in rep:
        errors += [f"traced count {k} = {v}, earlier traced repetition {first_trace[k]}"
                   for k, v in rep["trace_counts"].items() if first_trace.get(k) != v]
    if errors:
        rep["ok"] = False
        rep["errors"] = errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark needs the eventscan source tree; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    WORK.mkdir(exist_ok=True)
    out = WORK / f"run-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    facts = machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))

    # a first set-up fills the bytecode cache; it is not counted
    warm = _child(common + ["--setup-only"])
    if "setup_s" not in warm:
        print("# set-up failed: " + "; ".join(warm.get("errors", [])), file=sys.stderr)
        return 3

    reps: list[dict] = []
    setups: list[float] = []
    rounds: list[float] = []
    first_trace = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        setups += [p["setup_s"] for p in (_child(common + ["--setup-only"]) for _ in range(SETUP_PROBES_PER_REP))
                   if "setup_s" in p]
        traced = bool(args.trace) and len(reps) % 2 == 0
        extra = ["--trace", "1", "--spans", str(WORK / f"spans-{args.workload}.jsonl")] if traced else []
        rep = _child(common + extra)
        rep["traced"] = traced
        _check_counts(rep, reference, first_trace)
        if traced and rep.get("ok") and first_trace is None:
            first_trace = rep["trace_counts"]
        reps.append(rep)
        now = time.monotonic()
        rounds.append(now - round_start)
        n_traced = sum(r["traced"] for r in reps)
        enough = not args.trace or (n_traced >= 2 and len(reps) - n_traced >= 1)
        # start another round only if it would end nearer to --seconds than stopping now
        if enough and now - start + statistics.median(rounds) / 2 >= args.seconds:
            break

    failed = [r for r in reps if not r.get("ok")]
    for r in failed:
        print("# FAILED repetition: " + " | ".join(e.strip() for e in r.get("errors", [])), file=sys.stderr)
    good = [r for r in reps if r.get("ok")]
    plain = [r for r in good if not r["traced"]]
    size = next((r["input"] for r in good if "input" in r), None)
    if size:
        print(f"# input camera {size['camera']}, steps {size['steps']}, events {size['events']}")
    print(f"# repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced), failed {len(failed)}")

    samples = {k: [r[k] for r in plain] for k in ("wall_s", "cpu_s", "peak_rss_mb", "run_dir_mb")}
    samples["events_per_s"] = [r["counts"]["events"] / r["wall_s"] for r in plain]
    samples["setup_s"] = setups + [r["setup_s"] for r in good]
    for key, values in samples.items():
        if values:
            lo, mid, hi = _quartiles(values)
            listed = " ".join(f"{v:.4g}" for v in values)
            print(f"# {key}: median {mid:.6g}, quartiles {lo:.6g} .. {hi:.6g}, n={len(values)}: {listed}")

    metrics = {}
    if not args.trace:
        if plain:
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u} for k, u in E2E_UNITS.items()}
    else:
        traced_reps = [r for r in good if r["traced"]]
        if traced_reps and plain:
            for name in traced_reps[0]["layers"]:
                metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced_reps), "unit": _unit(name)}
            traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
            metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(samples["wall_s"]), "unit": "s"}
            metrics["formats.run_dir_mb"] = {"value": statistics.median(samples["run_dir_mb"]), "unit": "MB"}
            for r in traced_reps:
                print("# layers " + json.dumps(r["layers"], sort_keys=True))
    correct = bool(metrics) and not failed
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": len(failed), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("formats.bytes"):
        return "bytes"
    if name.endswith("_frac") or name.endswith("_fill"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
