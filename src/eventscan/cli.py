"""Command line front end.

``eventscan run --config run.cfg --out results/`` executes the full
pipeline. ``eventscan <stage>`` runs one stage on the artifacts in ``--out``;
with ``--input``, the artifacts of the earlier stages are first copied from
that directory into ``--out``. A stage that the run's mode skips is skipped
here too, and exits 0.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .formats import FormatError
from .pipeline import STAGES, ConfigError, PipelineConfig, StageError, load_config, run_pipeline, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config)
    updates = {key: value for key, value in (("seed", args.seed), ("mode", args.mode)) if value is not None}
    return dataclasses.replace(cfg, **updates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eventscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run",) + STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--mode", choices=["mixed", "diffuse-only"], default=None, help="override the config mode")
        p.add_argument("--input", default=None, help="directory to copy the earlier stages' artifacts from (defaults to --out)")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args)
        if args.command == "run":
            report = run_pipeline(cfg, args.out)
            for stage in report.stages:
                print(f"stage {stage}: ok")
            for key in sorted(report.numbers):
                print(f"{key} = {report.numbers[key]}")
        else:
            for line in run_stage(cfg, args.command, args.out, args.input).splitlines():
                print(f"{args.command}: {line}")
        return EXIT_OK
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
