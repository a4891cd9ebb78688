"""Record a baseline: several seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

It covers the workloads BENCHMARK.json lists, and each run lasts its
``run_seconds``. For every end-to-end metric it stores each run's value, the
median and quartiles over runs, and the spread (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles). The
traced run's per-layer table is stored beside it, with the machine facts
run.py printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, str]:
    """Result, machine facts and input-size line of one run.py run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines if ln.startswith("# machine "))
    size = next((ln[len("# input "):] for ln in lines if ln.startswith("# input ")), "unknown")
    return json.loads(lines[-1]), machine, size


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, doc["machine"], size = _run(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}", flush=True)
        e2e = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            e2e[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "values": values}
            print(f"  {name}: median {med:.6g} spread {(q3 - q1) / med:.4f}", flush=True)
        traced, _, _ = _run(workload, args.first_seed, seconds, 1)
        doc["workloads"][workload] = {
            "input": size,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
