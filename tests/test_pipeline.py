import hashlib
import json
import shutil
import subprocess
import sys
import typing

import pytest

from conftest import CONFIGS, REPO

from eventscan import pipeline
from eventscan.cli import main as cli_main
from eventscan.pipeline import STAGES, ConfigError, PipelineConfig, StageError, load_config, run_pipeline


def write_cfg(tmp_path, body):
    p = tmp_path / "run.cfg"
    p.write_text("[run]\n" + body)
    return p


def test_unknown_config_key_rejected(tmp_path):
    p = write_cfg(tmp_path, "scene = scenes/plane.scene\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(p), "--out", str(out)])
    assert rc == 2
    assert not out.exists() or not any(out.iterdir())


def test_workers_key_is_unknown(tmp_path):
    # the worker count was never used and is no longer a config key or flag
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\nworkers = 2\n")
    with pytest.raises(ConfigError, match="unknown config key 'workers'"):
        load_config(p)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(p), "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau_px", "abc"),
        ("seed", "abc"),
        ("drop_probability", "1.5"),
        ("deflect_max_iter", "0"),
        ("jitter_us", "-1.0"),
        ("spurious_rate", "-0.5"),
        ("deflect_tol_mm", "0"),
    ],
)
def test_bad_config_value_rejected_before_writing(tmp_path, key, value):
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


FLOAT_KEYS = [name for name, hint in typing.get_type_hints(PipelineConfig).items() if float in (typing.get_args(hint) or (hint,))]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_before_writing(tmp_path, key, value):
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be finite, got {value}"):
        load_config(p)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_defaults_echoed(tmp_path):
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\n")
    cfg = load_config(p)
    eff = cfg.effective()
    assert eff["tau_px"] == 2.0
    assert eff["gap_max_mm"] == 1.0
    assert eff["mode"] == "mixed"
    assert eff["init_depth"] == "auto"


def test_steps_off_projector_pixelation_rejected_before_writing(tmp_path):
    # sweep steps are projector pixels; plane.scene's projector is 801 px square
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\nsteps = 800\n")
    with pytest.raises(ConfigError, match="steps 800"):
        run_pipeline(load_config(p), tmp_path / "lib")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "lib").exists()


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig(scene="x", mode="turbo")


@pytest.fixture(scope="module")
def mirror_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mirror_run")
    cfg = load_config(CONFIGS / "plane_mirror.cfg")
    report = run_pipeline(cfg, out)
    return cfg, report, out


def test_full_run_artifacts(mirror_run):
    _, report, out = mirror_run
    expected = [
        "events.txt",
        "ground_truth.txt",
        "ground_truth_events.txt",
        "rig.calib",
        "scan.txt",
        "correspondences.txt",
        "classified.txt",
        "diffuse.ply",
        "screen.txt",
        "specular.ply",
        "normals.pfm",
        "normal_mask.pfm",
        "residuals.txt",
        "metrics.txt",
        "metrics.tsv",
        "manifest.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tau_px"] == 2.0
    assert manifest["numbers"]["uncovered"] == 0
    assert "deflect" in manifest["stages"]


def run_staged(config, root, chain=False):
    """Run the six subcommands in one directory, or each in a fresh one fed by
    the previous one through --input; returns the last directory."""
    prev = None
    for stage in STAGES:
        out = root / (stage if chain else "staged")
        args = [stage, "--config", str(config), "--out", str(out)]
        assert cli_main(args + (["--input", str(prev)] if prev else [])) == 0, stage
        prev = out
    return out


def assert_same_files(run_dir, staged_dir):
    names = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
    assert sorted(p.name for p in staged_dir.iterdir()) == names
    for name in names:
        assert (staged_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_stage_composition_equals_monolith(mirror_run, tmp_path):
    _, _, out = mirror_run
    assert_same_files(out, run_staged(CONFIGS / "plane_mirror.cfg", tmp_path))


@pytest.mark.parametrize(
    "config, chain",
    [
        ("plane.cfg", True),  # mixed mode without a mirror: deflect is skipped
        ("plane_fast.cfg", False),  # diffuse-only: separate and deflect are skipped
    ],
)
def test_staged_skips_what_run_skips(config, chain, tmp_path):
    run_pipeline(load_config(CONFIGS / config), tmp_path / "run")
    assert_same_files(tmp_path / "run", run_staged(CONFIGS / config, tmp_path, chain))


def test_stage_subcommand_failure_writes_marker(tmp_path):
    out = tmp_path / "o"
    args = ["--config", str(CONFIGS / "plane.cfg"), "--out", str(out)]
    assert cli_main(["simulate"] + args) == 0
    events = out / "events.txt"
    events.write_bytes(events.read_bytes()[: events.stat().st_size // 2])
    assert cli_main(["decode"] + args) == 3
    assert "stage = decode" in (out / "FAILED").read_text()


def test_decode_on_empty_stream_warns(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    cfg = load_config(CONFIGS / "plane.cfg")
    from eventscan.events import EventStream
    from eventscan.pipeline import load_run_scene, stage_simulate

    stage_simulate(cfg, out, load_run_scene(cfg))
    EventStream.empty().save_text(out / "events.txt")
    rc = cli_main(["decode", "--config", str(CONFIGS / "plane.cfg"), "--out", str(out)])
    assert rc == 0
    assert (out / "correspondences.txt").exists()


def test_diffuse_only_skips_separation_and_deflectometry(tmp_path):
    out = tmp_path / "fast"
    cfg = load_config(CONFIGS / "plane.cfg")
    values = cfg.effective()
    values["mode"] = "diffuse-only"
    report = run_pipeline(PipelineConfig(**values), out)
    assert "separate" not in report.stages and "deflect" not in report.stages
    assert not (out / "specular.ply").exists()
    assert not (out / "classified.txt").exists()
    # single sweep: half the scan span of the dual run
    assert report.numbers["scan_span_us"] * 2 == 250000


def test_stage_failure_writes_marker(tmp_path, monkeypatch):
    bad_scene = tmp_path / "bad.scene"
    bad_scene.write_text("[camera]\nwidth = 4\n")
    cfg_path = write_cfg(tmp_path, f"scene = {bad_scene}\n")
    out = tmp_path / "out"
    # a scene that does not parse is a configuration error: exit 2, nothing written
    with pytest.raises(ConfigError):
        run_pipeline(load_config(cfg_path), out)
    for command in ("run", "simulate"):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    # a fault while running is a stage failure: exit 3 and a FAILED marker
    def broken_simulator(*args, **kwargs):
        raise RuntimeError("simulator fault")

    monkeypatch.setattr(pipeline, "simulate_scan", broken_simulator)
    cfg_path = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\n")
    with pytest.raises(StageError):
        run_pipeline(load_config(cfg_path), out)
    assert (out / "FAILED").exists()
    assert "simulate" in (out / "FAILED").read_text()
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out2")])
    assert rc == 3


@pytest.mark.parametrize("key, value", [("width", "abc"), ("fx", "1e3x")])
def test_unparsable_scene_value_names_file_and_key(tmp_path, key, value):
    lines = (REPO / "scenes" / "plane.scene").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {value}"
    scene = tmp_path / "bad.scene"
    scene.write_text("\n".join(lines) + "\n")
    cfg_path = write_cfg(tmp_path, f"scene = {scene}\n")
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=rf"bad\.scene.*\[camera\] key '{key}'"):
        run_pipeline(load_config(cfg_path), out)
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("camera", "fx"),
        ("camera", "skew"),
        ("camera", "k1"),
        ("camera", "rotation"),
        ("projector", "translation"),
        ("noise", "timestamp_jitter_sigma_us"),
        ("noise", "spurious_rate"),
        ("noise", "drop_probability"),
        ("object", "point"),
        ("object", "normal"),
        ("object", "extent"),
        ("object", "albedo"),
    ],
)
def test_non_finite_scene_value_rejected_before_writing(tmp_path, section, key, value):
    # the first number of [section] key becomes value
    lines = (REPO / "scenes" / "plane.scene").read_text().splitlines()
    start = lines.index(f"[{section}]")
    at = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} ="))
    numbers = lines[at].split("=", 1)[1].split()
    lines[at] = f"{key} = " + " ".join([value] + numbers[1:])
    scene = tmp_path / "bad.scene"
    scene.write_text("\n".join(lines) + "\n")
    cfg_path = write_cfg(tmp_path, f"scene = {scene}\n")
    with pytest.raises(ConfigError, match=rf"bad\.scene: {key} must be finite"):
        pipeline.load_run_scene(load_config(cfg_path))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_seed_changes_noise_and_manifest(tmp_path):
    body = f"scene = {REPO/'scenes'/'plane.scene'}\njitter_us = 40.0\nfit_diffuse = plane\n"
    p = write_cfg(tmp_path, body)
    cfg = load_config(p)
    r1 = run_pipeline(cfg, tmp_path / "a")
    values = cfg.effective()
    values["seed"] = 1
    r2 = run_pipeline(PipelineConfig(**values), tmp_path / "b")
    e1 = (tmp_path / "a" / "events.txt").read_bytes()
    e2 = (tmp_path / "b" / "events.txt").read_bytes()
    assert e1 != e2
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]["seed"] == 1


def test_manifest_does_not_depend_on_checkout_directory(tmp_path):
    # the same configs and scenes under two directory names give the same manifest
    manifests = []
    for name in ("a", "checkout_b"):
        root = tmp_path / name
        shutil.copytree(CONFIGS, root / "configs")
        shutil.copytree(REPO / "scenes", root / "scenes")
        run_pipeline(load_config(root / "configs" / "plane_fast.cfg"), root / "out")
        manifests.append((root / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["config"]["scene"] == "../scenes/plane.scene"
    scene_hash = hashlib.sha256((REPO / "scenes" / "plane.scene").read_bytes()).hexdigest()
    assert manifest["input_sha256"] == {"scene": scene_hash}


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eventscan.cli", "run", "--config", "missing.cfg", "--out", "/tmp/nowhere"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 2
