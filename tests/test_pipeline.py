import hashlib
import json
import shutil
import subprocess
import sys
import typing

import numpy as np
import pytest

from conftest import CONFIGS, REPO, RunStore, assert_same_run_dirs

from eventscan import formats, pipeline
from eventscan.cli import main as cli_main
from eventscan.decode import CORRESPONDENCE_COLUMNS
from eventscan.deflectometry import RESIDUAL_COLUMNS
from eventscan.events import EVENT_COLUMNS, EVENT_TRUTH_COLUMNS, PATH_COLUMNS, EventStream, GroundTruth
from eventscan.pipeline import MANIFEST, STAGES, ConfigError, PipelineConfig, StageError, load_config, run_pipeline
from eventscan.separate import CLASSIFIED_COLUMNS
from eventscan.triangulate import CLOUD_COLUMNS, SCREEN_COLUMNS


def write_cfg(tmp_path, body):
    p = tmp_path / "run.cfg"
    p.write_text("[run]\n" + body)
    return p


# not config keys: each would repeat a library default or the scene's steps_per_sweep
REMOVED_KEYS = ("tau_px", "gap_max_mm", "polarity_policy", "deflect_max_iter", "deflect_tol_mm", "steps")


def test_unknown_config_key_rejected(tmp_path):
    for key in ("bogus",) + REMOVED_KEYS:
        p = write_cfg(tmp_path, f"scene = scenes/plane.scene\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(p)
        out = tmp_path / key
        rc = cli_main(["run", "--config", str(p), "--out", str(out)])
        assert rc == 2, key
        assert not out.exists(), key


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
        # tau_px, deflect_max_iter and deflect_tol_mm are not keys (REMOVED_KEYS):
        # a value for one is refused as an unknown key, which names it
        ("tau_px", "abc"),
        ("seed", "abc"),
        ("drop_probability", "1.5"),
        ("deflect_max_iter", "0"),
        ("jitter_us", "-1.0"),
        ("spurious_rate", "-0.5"),
        ("deflect_tol_mm", "0"),
        ("init_depth", "0"),
        ("init_depth", "-5"),
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


def test_mode_is_a_config_key_not_an_option(tmp_path):
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\nmode = diffuse-only\n")
    assert load_config(p).mode == "diffuse-only"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(p), "--out", str(out), "--mode", "mixed"])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_store_names_each_changed_file(tmp_path, monkeypatch):
    made = []

    def fake_run(cfg, out):
        made.append(out)
        out.mkdir()
        for name in ("a.txt", "b.txt", "c.txt"):
            (out / name).write_text(name)
        return pipeline.RunReport(out, [], {}, {})

    monkeypatch.setattr(pipeline, "run_pipeline", fake_run)
    store = RunStore(tmp_path)
    cfg = PipelineConfig(scene="x")
    _, out = store(cfg)
    assert store(PipelineConfig(scene="x"))[1] == out and made == [out]
    assert store.changed() == []
    with open(out / "a.txt", "ab") as f:
        f.write(b"\0")
    (out / "b.txt").unlink()
    (out / "d.txt").write_text("d")
    assert store.changed() == [str(out / name) for name in ("a.txt", "b.txt", "d.txt")]


def test_config_defaults_echoed(tmp_path):
    p = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\n")
    cfg = load_config(p)
    assert cfg.effective() == {
        "scene": str(REPO / "scenes" / "plane.scene"),
        "calibration": "from-scene",
        "mode": "mixed",
        "seed": 0,
        "init_depth": "auto",
        "fit_diffuse": "none",
        "fit_specular": "none",
        "higher_bounces": False,
        "sweep_us": None,
        "recovery_us": None,
        "jitter_us": None,
        "spurious_rate": None,
        "drop_probability": None,
    }


def test_steps_off_projector_pixelation_rejected_before_writing(tmp_path):
    # sweep steps are projector pixels; plane.scene's projector is 801 px square
    scene = tmp_path / "steps.scene"
    text = (REPO / "scenes" / "plane.scene").read_text()
    scene.write_text(text.replace("steps_per_sweep = 801", "steps_per_sweep = 800", 1))
    p = write_cfg(tmp_path, f"scene = {scene}\n")
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
def mirror_run(stored_run):
    cfg = load_config(CONFIGS / "plane_mirror.cfg")
    return (cfg, *stored_run(cfg))


def test_full_run_artifacts(mirror_run):
    cfg, report, out = mirror_run
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
    tables = {
        "events.txt": EVENT_COLUMNS, "ground_truth.txt": PATH_COLUMNS, "ground_truth_events.txt": EVENT_TRUTH_COLUMNS,
        "correspondences.txt": CORRESPONDENCE_COLUMNS, "classified.txt": CLASSIFIED_COLUMNS, "diffuse.ply": CLOUD_COLUMNS,
        "screen.txt": SCREEN_COLUMNS, "specular.ply": pipeline.SPECULAR_COLUMNS, "residuals.txt": RESIDUAL_COLUMNS,
        "metrics.tsv": pipeline.METRICS_COLUMNS,
    }
    for name, columns in tables.items():  # each table and PLY file has a binary twin that matches it
        assert formats.twin_path(out / name).name in manifest["artifacts"], name
        assert formats._read_twin(out / name, columns) is not None, name
    assert manifest["config"].keys() == cfg.effective().keys()
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
    """The stages wrote every file the run wrote, byte for byte, and no manifest."""
    assert not (staged_dir / MANIFEST).exists()
    assert_same_run_dirs(run_dir, staged_dir, skip=(MANIFEST,))


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
def test_staged_skips_what_run_skips(stored_run, config, chain, tmp_path):
    _, run_dir = stored_run(load_config(CONFIGS / config))
    assert_same_files(run_dir, run_staged(CONFIGS / config, tmp_path, chain))


@pytest.fixture(scope="module")
def mirror_stream(mirror_run):
    _, _, out = mirror_run
    truth = GroundTruth.load_text(out / "ground_truth.txt", out / "ground_truth_events.txt")
    return out, EventStream.load_text(out / "events.txt"), truth


def degenerate_event_ids(case, events, truth):
    """Rows of the plane_mirror stream that make up one degenerate stream."""
    bounce = truth.per_event("bounce")

    def light_at_pixel(i):
        return np.flatnonzero((events.x == events.x[i]) & (events.y == events.y[i]) & (bounce == bounce[i]))

    direct = light_at_pixel(np.flatnonzero(bounce == 1)[0])
    indirect = light_at_pixel(np.flatnonzero(bounce == 2)[0])
    if case in ("recovery_only", "one_direct_pixel"):
        return direct
    if case == "one_indirect_pixel":
        return indirect
    if case == "no_indirect_light":
        block = (np.abs(events.x - events.x[direct[0]]) < 8) & (np.abs(events.y - events.y[direct[0]]) < 8)
        return np.flatnonzero(block & (bounce == 1))
    # one indirect pixel and the direct pixel farthest from its screen
    # point in projector pixels, so the screen holds no entry for it
    lit = np.flatnonzero(bounce == 1)
    proj = truth.per_event("projector_pixel")
    far = lit[np.argmax(np.linalg.norm(proj[lit] - proj[indirect[0]], axis=1))]
    return np.concatenate([light_at_pixel(far), indirect])


# what the FAILED marker names for the degenerate streams that cannot finish:
# their one indirect correspondence has no screen entry to bind to
DEGENERATE_FAILURES = {
    "one_indirect_pixel": "stage = deflect\nerror = no bound correspondences (1 without a screen entry)\n",
    "uncovered_indirect": "stage = deflect\nerror = no bound correspondences (1 without a screen entry)\n",
}


@pytest.mark.parametrize(
    "case", ["recovery_only", "one_direct_pixel", "one_indirect_pixel", "no_indirect_light", "uncovered_indirect"]
)
def test_degenerate_stream_through_subcommands(mirror_stream, tmp_path, case):
    # decode ... metrics on a degenerate stream exit 0, or exit 3 with a
    # FAILED marker that names the cause; no exception escapes
    src, events, truth = mirror_stream
    ids = degenerate_event_ids(case, events, truth)
    stream, gt = events.take(ids), truth.take(ids)
    if case == "recovery_only":
        schedule = pipeline.STORE["scan"].load([src / "scan.txt"]).schedule
        gap = schedule.sweep_start(0) + schedule.sweep_duration_us
        stream.t[:] = gap + schedule.recovery_us // 2 + np.arange(len(stream))
    order = stream.sort_order()
    out = tmp_path / case
    out.mkdir()
    for name in ("rig.calib", "scan.txt"):
        shutil.copyfile(src / name, out / name)
    stream.take(order).save_text(out / "events.txt")
    gt.take(order).save_text(out / "ground_truth.txt", out / "ground_truth_events.txt")
    for stage in STAGES[1:]:
        rc = cli_main([stage, "--config", str(CONFIGS / "plane_mirror.cfg"), "--out", str(out)])
        if rc:
            break
    if case in DEGENERATE_FAILURES:
        assert rc == 3
        assert (out / "FAILED").read_text() == DEGENERATE_FAILURES[case]
    else:
        assert rc == 0 and not (out / "FAILED").exists()


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


def test_diffuse_only_skips_separation_and_deflectometry(stored_run):
    cfg = load_config(CONFIGS / "plane.cfg")
    values = cfg.effective()
    values["mode"] = "diffuse-only"
    report, out = stored_run(PipelineConfig(**values))
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


def test_jitter_beyond_the_clock_fails_simulate_before_events_are_written(tmp_path):
    cfg_path = write_cfg(tmp_path, f"scene = {REPO/'scenes'/'plane.scene'}\njitter_us = 1e300\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "stage = simulate\nerror = timestamp jitter 1e+300 us" in (out / "FAILED").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["FAILED"]


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
    with pytest.raises(ConfigError, match=rf"bad\.scene: section \[{section}\]: {key} must be finite"):
        pipeline.load_run_scene(load_config(cfg_path))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_shape_kind_names_its_section_and_key(tmp_path):
    for kind in ("cube", "mesh"):
        scene = tmp_path / f"{kind}.scene"
        scene.write_text((REPO / "scenes" / "plane.scene").read_text().replace("shape = plane", f"shape = {kind}", 1))
        cfg_path = write_cfg(tmp_path, f"scene = {scene}\n")
        with pytest.raises(ConfigError, match=rf"{kind}\.scene: section \[object\] key 'shape': unknown shape kind '{kind}'"):
            pipeline.load_run_scene(load_config(cfg_path))
        out = tmp_path / f"out_{kind}"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("label", ["back wall", "-", ""], ids=["space", "dash", "empty"])
def test_scene_label_the_truth_header_cannot_carry_is_rejected(tmp_path, label):
    # ground_truth.txt's '# labels:' line splits at whitespace and reads a lone '-' as no labels
    scene = tmp_path / "bad.scene"
    scene.write_text((REPO / "scenes" / "plane.scene").read_text().replace("label = plane", f"label = {label}", 1))
    cfg_path = write_cfg(tmp_path, f"scene = {scene}\n")
    with pytest.raises(ConfigError, match=r"bad\.scene: section \[object\] key 'label': label "):
        pipeline.load_run_scene(load_config(cfg_path))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, bad_file", [("run", "config"), ("simulate", "config"), ("run", "scene")])
def test_input_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command, bad_file):
    scene = tmp_path / "plane.scene"
    scene.write_bytes((REPO / "scenes" / "plane.scene").read_bytes() + (b"# caf\xff\n" if bad_file == "scene" else b""))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"[run]\nscene = plane.scene\n" + (b"# caf\xff\n" if bad_file == "config" else b""))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    bad = cfg_path if bad_file == "config" else scene
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


def test_calibration_file_run_matches_the_from_scene_run(stored_run, tmp_path):
    # plane_fast.cfg once from the scene's rig, once from the rig.calib that run wrote
    shutil.copytree(CONFIGS, tmp_path / "configs")
    shutil.copytree(REPO / "scenes", tmp_path / "scenes")
    base = tmp_path / "configs" / "plane_fast.cfg"
    shutil.copytree(stored_run(load_config(CONFIGS / "plane_fast.cfg"))[1], tmp_path / "scene_rig")
    calib = tmp_path / "configs" / "calib_file.cfg"
    calib.write_text(base.read_text().replace("calibration = from-scene", "calibration = ../scene_rig/rig.calib"))
    run_pipeline(load_config(calib), tmp_path / "file_rig")
    assert_same_run_dirs(tmp_path / "scene_rig", tmp_path / "file_rig", skip=(MANIFEST,))
    manifest = json.loads((tmp_path / "file_rig" / "manifest.json").read_text())
    assert manifest["config"]["calibration"] == "../scene_rig/rig.calib"
    rig_hash = hashlib.sha256((tmp_path / "scene_rig" / "rig.calib").read_bytes()).hexdigest()
    assert manifest["input_sha256"]["calibration"] == rig_hash


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


def test_manifest_does_not_depend_on_checkout_directory(stored_run, tmp_path):
    # the same configs and scenes under two directory names give the same manifest
    _, out = stored_run(load_config(CONFIGS / "plane_fast.cfg"))
    root = tmp_path / "checkout_b"
    shutil.copytree(CONFIGS, root / "configs")
    shutil.copytree(REPO / "scenes", root / "scenes")
    run_pipeline(load_config(root / "configs" / "plane_fast.cfg"), root / "out")
    assert_same_run_dirs(out, root / "out")
    manifest = json.loads((out / MANIFEST).read_text())
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
