"""Print the sha256 of every run-directory file of a fixed set of runs.

Runs, in a work directory (``--out``):

- ``eventscan run`` on each shipped config in ``configs/``;
- the staged chain (one ``eventscan <stage>`` call per stage) on
  ``specular_sphere.cfg``;
- ``eventscan run`` on ``plane_mirror.cfg`` with timestamp jitter, event
  drops, spurious events and higher bounces switched on;
- ``eventscan run`` on ``plane_mirror.cfg`` with ``calibration =`` the
  ``rig.calib`` of the ``plane_mirror`` run above. Its files must equal that
  run's, apart from ``manifest.json``; the script stops if they do not.

``configs/`` and ``scenes/`` are copied into the work directory first and
every run reads the copies, so the output does not depend on where the
checkout lives. Each output line is ``sha256  run/file``, sorted. Two
checkouts produce the same bytes exactly when ``diff`` of their outputs is
empty:

    python tools/rundir_sha256.py --out /tmp/a > a.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eventscan.cli import main as eventscan  # noqa: E402
from eventscan.pipeline import MANIFEST, STAGES  # noqa: E402

NOISY = "jitter_us = 20\ndrop_probability = 0.05\nspurious_rate = 0.001\nhigher_bounces = true\n"


def _call(args: list) -> None:
    # the CLI's own report goes to stderr, so stdout holds only the hashes
    with contextlib.redirect_stdout(sys.stderr):
        rc = eventscan(args)
    if rc:
        raise SystemExit(f"eventscan {' '.join(args)} exited {rc}")


def _files(run: Path) -> dict:
    return {path.name: path.read_bytes() for path in run.iterdir() if path.name != MANIFEST}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="work directory: new or empty")
    out = Path(parser.parse_args(argv).out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    configs = out / "inputs" / "configs"
    shutil.copytree(ROOT / "configs", configs)
    shutil.copytree(ROOT / "scenes", out / "inputs" / "scenes")
    noisy = configs / "plane_mirror_noisy.cfg"
    noisy.write_text((configs / "plane_mirror.cfg").read_text() + NOISY)

    runs = {}
    for cfg in sorted(configs.glob("*.cfg")):
        runs[cfg.stem] = out / cfg.stem
        _call(["run", "--config", str(cfg), "--out", str(runs[cfg.stem])])
    rig_file = configs / "plane_mirror_rig_file.cfg"
    rig_file.write_text((configs / "plane_mirror.cfg").read_text().replace("from-scene", "../../plane_mirror/rig.calib"))
    runs[rig_file.stem] = out / rig_file.stem
    _call(["run", "--config", str(rig_file), "--out", str(runs[rig_file.stem])])
    if _files(runs[rig_file.stem]) != _files(runs["plane_mirror"]):
        raise SystemExit("the run from plane_mirror's rig.calib differs from plane_mirror")
    runs["specular_sphere_staged"] = out / "specular_sphere_staged"
    for stage in STAGES:
        _call([stage, "--config", str(configs / "specular_sphere.cfg"), "--out", str(runs["specular_sphere_staged"])])

    lines = []
    for name, run in runs.items():
        for path in run.iterdir():
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
