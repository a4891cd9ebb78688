"""Command line front end.

``eventscan run --config run.cfg --out results/`` executes the full
pipeline; the per-stage subcommands consume and produce the same artifact
files so stages can be run and inspected independently.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .formats import FormatError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    load_config,
    run_pipeline,
    stage_decode,
    stage_deflect,
    stage_metrics,
    stage_separate,
    stage_simulate,
    stage_triangulate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--mode", choices=["mixed", "diffuse-only"], default=None, help="override the config mode")
    p.add_argument("--input", default=None, help="directory holding upstream artifacts (defaults to --out)")


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.mode is not None:
        updates["mode"] = args.mode
    if updates:
        values = cfg.effective()
        values.update(updates)
        cfg = PipelineConfig(**values)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eventscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "simulate", "decode", "separate", "triangulate", "deflect", "metrics"):
        p = sub.add_parser(name)
        _add_common(p)
    args = parser.parse_args(argv)

    try:
        cfg = _load(args)
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    src = Path(args.input) if args.input else out
    try:
        if args.command == "run":
            report = run_pipeline(cfg, out)
            for stage in report.stages:
                print(f"stage {stage}: ok")
            for key in sorted(report.numbers):
                print(f"{key} = {report.numbers[key]}")
            return EXIT_OK
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            result, *_ = stage_simulate(cfg, out)
            print(f"simulate: {len(result.events)} events")
        elif args.command == "decode":
            _copy_upstream(src, out, ["events.txt", "scan.txt", "rig.calib"])
            corr, _ = stage_decode(cfg, out)
            print(f"decode: {len(corr)} correspondences")
            if len(corr) == 0:
                print("warning: empty correspondence table", file=sys.stderr)
        elif args.command == "separate":
            _copy_upstream(src, out, ["correspondences.txt", "rig.calib"])
            classified = stage_separate(cfg, out)
            print(f"separate: {len(classified)} classified")
        elif args.command == "triangulate":
            _copy_upstream(src, out, ["classified.txt", "rig.calib"])
            cloud, _ = stage_triangulate(cfg, out)
            print(f"triangulate: {len(cloud)} points")
        elif args.command == "deflect":
            _copy_upstream(src, out, ["classified.txt", "rig.calib", "diffuse.ply"])
            binding, estimate, _ = stage_deflect(cfg, out)
            state = "converged" if estimate.converged else "not converged"
            print(f"deflect: {len(binding)} bound, {estimate.iterations} iterations, {state}")
        elif args.command == "metrics":
            from .events import GroundTruth
            from .scene import load_calibration_bundle
            from .separate import ClassifiedSet
            from .triangulate import DiffuseCloud

            _copy_upstream(src, out, ["diffuse.ply", "rig.calib"])
            cloud = DiffuseCloud.load_ply(out / "diffuse.ply")
            camera, _ = load_calibration_bundle(out / "rig.calib")
            classified = None
            if (out / "classified.txt").exists() or (src / "classified.txt").exists():
                _copy_upstream(src, out, ["classified.txt"])
                classified = ClassifiedSet.load_text(out / "classified.txt")
                for name in ("provenance_ids.npy", "provenance_offsets.npy"):
                    if (src / name).exists() or (out / name).exists():
                        _copy_upstream(src, out, [name])
                import numpy as _np

                if (out / "provenance_ids.npy").exists():
                    classified.base.event_ids = _np.load(out / "provenance_ids.npy")
                    classified.base.event_offsets = _np.load(out / "provenance_offsets.npy")
            truth = None
            if (out / "ground_truth.txt").exists() or (src / "ground_truth.txt").exists():
                _copy_upstream(src, out, ["ground_truth.txt"])
                truth = GroundTruth.load_text(out / "ground_truth.txt")
            specular_points = None
            deflect_meta = None
            if (out / "specular.ply").exists() or (src / "specular.ply").exists():
                from .formats import read_ply, read_sections

                _copy_upstream(src, out, ["specular.ply", "deflect.txt"])
                specular_points, _ = read_ply(out / "specular.ply")
                meta = {s.name: s for s in read_sections(out / "deflect.txt")}["deflect"]
                deflect_meta = {
                    "rejected_fraction": meta.get_float("rejected_fraction"),
                    "iterations": meta.get_int("iterations"),
                }
            report = stage_metrics(
                cfg, out, cloud, classified, truth, camera,
                specular_points=specular_points, deflect_meta=deflect_meta,
            )
            for key in sorted(report):
                print(f"{key} = {report[key]}")
        return EXIT_OK
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (FormatError, FileNotFoundError, ValueError) as exc:
        print(f"error in stage '{args.command}': {exc}", file=sys.stderr)
        return EXIT_STAGE


def _copy_upstream(src: Path, out: Path, names: list[str]) -> None:
    if src == out:
        return
    for name in names:
        data = (src / name).read_bytes()
        (out / name).write_bytes(data)


if __name__ == "__main__":
    sys.exit(main())
