"""Time the ray tracer, the screen build, the screen bind and the shape search on hd_memory's inputs.

Builds ``hd_memory``'s scene through ``perfbench/workloads.hd_scene`` and
times ``simulate.simulate_scan`` on it ``--repeat`` times, reading the
process's ``ru_maxrss`` after the first call. It then runs decode, separate
and triangulate once (untimed) and times ``triangulate.build_virtual_screen``,
``deflectometry.bind_screen`` and ``deflectometry.iterative_shape`` on the
result, each ``--repeat`` times. Prints one JSON line: the median wall
seconds per layer and, next to each (``<layer>_cpu_s``), its median CPU
seconds from ``getrusage(RUSAGE_SELF)``, which counts every thread of the
process, so a BLAS worker spinning beside the caller shows as CPU above
wall; then simulate's ``ru_maxrss`` in MiB, the counts that tie a timing to
its input, and ``curl_evaluations`` where ``SurfaceEstimate`` has that
field.

``--root DIR`` imports eventscan from ``DIR/src`` and the workload from
``DIR/perfbench``, so one script times two checkouts:

    python tools/layer_bench.py --root /path/to/parent
    python tools/layer_bench.py --root .
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed(fn, repeat: int):
    """(median wall seconds, median CPU seconds over ``repeat`` calls of ``fn``, the last call's result)."""
    walls, cpus = [], []
    for _ in range(repeat):
        out = None  # the previous result is let go before the next call
        t0, c0 = time.perf_counter(), _cpu_s()
        out = fn()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - c0)
    return statistics.median(walls), statistics.median(cpus), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 3:
        parser.error("--repeat must be at least 3 for a median")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]

    from eventscan import decode, deflectometry, geometry, separate, simulate, triangulate
    from perfbench.workloads import hd_scene

    base, camera, objects, noise = hd_scene(root, args.seed)
    projector, schedule = base.projector, base.schedule
    maxrss_mib = []

    def simulate_once():
        out = simulate.simulate_scan(objects, camera, projector, schedule, noise)
        if not maxrss_mib:
            maxrss_mib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return out

    simulate_s, simulate_cpu_s, result = _timed(simulate_once, args.repeat)
    n_events = len(result.events)
    corr = decode.intersect_sweeps(decode.assign_sweeps(result.events, schedule, schedule.scan_start_us, 2))
    del result
    F = geometry.fundamental_from_models(camera, projector)
    classified = separate.resolve_mixed_pixels(separate.epipolar_classify(corr, F, tau=2.0))
    cloud = triangulate.triangulate_direct(classified, camera, projector, 1.0)

    screen_s, screen_cpu_s, screen = _timed(lambda: triangulate.build_virtual_screen(cloud), args.repeat)
    bind_s, bind_cpu_s, binding = _timed(lambda: deflectometry.bind_screen(classified, screen), args.repeat)
    shape_s, shape_cpu_s, (estimate, _) = _timed(
        lambda: deflectometry.iterative_shape(binding, camera, cloud=cloud), args.repeat)
    out = {
        "root": root.name, "seed": args.seed, "repeat": args.repeat,
        "simulate_scan_s": round(simulate_s, 4), "simulate_scan_cpu_s": round(simulate_cpu_s, 4),
        "simulate_maxrss_mib": round(maxrss_mib[0], 1), "events": n_events,
        "build_virtual_screen_s": round(screen_s, 4), "build_virtual_screen_cpu_s": round(screen_cpu_s, 4),
        "bind_screen_s": round(bind_s, 4), "bind_screen_cpu_s": round(bind_cpu_s, 4),
        "iterative_shape_s": round(shape_s, 4), "iterative_shape_cpu_s": round(shape_cpu_s, 4),
        "cloud_points": len(cloud), "screen_entries": len(screen), "bound": len(binding),
        "uncovered": binding.uncovered, "iterations": estimate.iterations, "converged": bool(estimate.converged),
    }
    if hasattr(estimate, "curl_evaluations"):
        out["curl_evaluations"] = estimate.curl_evaluations
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
