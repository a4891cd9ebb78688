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
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _show(prefix: str, notes: list, counts: dict) -> None:
    """The one console report: each note, then each count as ``key = value``, every line after ``prefix``."""
    for line in notes + [f"{key} = {counts[key]}" for key in sorted(counts)]:
        print(prefix + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eventscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run",) + STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--input", default=None, help="directory to copy the earlier stages' artifacts from (defaults to --out)")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args)
        if args.command == "run":
            report = run_pipeline(cfg, args.out)
            notes = [f"stage {r.stage}: {note}" for r in report.records if not r.skipped for note in ["ok"] + [f"warning: {w}" for w in r.warnings]]
            _show("", notes, report.numbers)
        else:
            r = run_stage(cfg, args.command, args.out, args.input)
            _show(f"{r.stage}: ", [f"skipped: {r.skipped}"] if r.skipped else [f"warning: {w}" for w in r.warnings], r.counts)
        return EXIT_OK
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
