"""CLI tests.

Covers:
- exit codes: 0 success, 1 runtime failure, 2 usage/config errors
- a grasp that bends past the calibrated range names its object,
  set-point and trial
- a switch run whose tracking error squares past the float range exits 0
- the exact key sets of every JSON output
- validate: normalized dump with defaults, per-field diagnostics
- outputs land only under --out; manifest written alongside
- --seed override recorded in the manifest
- byte-identical re-runs from the same seed and from the manifest's embedded
  config, with --jobs varying
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from softgrip.cli import main

FAST_CONFIG = {
    "seed": 7,
    "calibration": {"cycles": 3, "levels": 8},
    "step": {"n_seeds": 1, "segment_s": 4.0},
    "switching": {"n_seeds": 2, "duration_s": 8.0},
    "estimation": {"n_seeds": 1, "positions": [20.0, 30.0]},
    "grasp": {"setpoints": [1.0, 3.0], "n_trials": 2, "duration_s": 5.0},
    "hardness": {"duration_s": 6.0},
}


def write_config(tmp_path, extra=None, name="config.json"):
    data = json.loads(json.dumps(FAST_CONFIG))
    if extra:
        for key, value in extra.items():
            node = data
            parts = key.split(".")
            for p in parts[:-1]:
                node = node.setdefault(p, {})
            node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_missing_config_exit_2_names_path(tmp_path, capsys):
    rc = main(["calibrate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_experiment_exit_2_lists_names(tmp_path, capsys):
    rc = main(["run", "wiggle", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    for name in ("step", "switch", "grasp", "hardness", "estimate"):
        assert name in err


def test_validate_default_config_dumps_gains(capsys):
    rc = main(["validate"])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["controller"]["kp"] == 10.0
    assert dump["controller"]["ki"] == 1.5
    assert dump["controller"]["period"] == pytest.approx(1.0 / 60.0)


def test_validate_gains_omitted_shows_defaults(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"seed": 3}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["controller"]["kp"] == 10.0
    assert dump["controller"]["ki"] == 1.5
    assert dump["seed"] == 3


def test_validate_negative_stiffness_exit_2_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"switching.object.stiffness": -1.0})
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "switching.object.stiffness" in capsys.readouterr().err


def test_validate_unknown_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"plnt": {}}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "plnt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, args, field",
    [
        ({"grasp.settle_window_s": 0}, [], "grasp.settle_window_s"),
        ({"grasp.duration_s": -1}, [], "grasp.duration_s"),
        ({"grasp.duration_s": "inf"}, [], "grasp.duration_s"),
        ({"grasp.duration_s": 1e308}, [], "grasp.duration_s"),
        ({"grasp.settle_window_s": 0.001}, [], "grasp.settle_window_s"),
        ({"estimation.n_seeds": 0}, [], "estimation.n_seeds"),
        ({"hardness.n_seeds": 20}, [], "hardness.n_seeds"),
        ({}, ["--jobs", "-3"], "--jobs"),
        ({"estimation.positions": ["x"]}, [], "estimation.positions[0]"),
        ({"grasp.setpoints": ["a"]}, [], "grasp.setpoints[0]"),
        ({"plant.internal_weights": [None]}, [], "plant.internal_weights[0]"),
        ({"plant.finger_scales": [1, "b", 1]}, [], "plant.finger_scales[1]"),
        ({"estimation.positions": [20.0, float("inf")]}, [], "estimation.positions[1]"),
        ({"seed": float("inf")}, [], "seed"),  # what JSON's 1e400 parses to
        ({"grasp.n_trials": float("inf")}, [], "grasp.n_trials"),
        ({"calibration.cycles": 2.7}, [], "calibration.cycles"),
        ({"step.segment_s": 0}, [], "step.segment_s"),
        ({"step.segment_s": 0.01}, [], "step.segment_s"),
        ({"switching.duration_s": 0}, [], "switching.duration_s"),
        ({"controller.kp": float("nan")}, [], "controller.kp"),
        (
            {"grasp.objects.eggshell.deform_threshold": float("nan")},
            [],
            "grasp.objects.eggshell.deform_threshold",
        ),
    ],
)
def test_run_rejects_bad_input_exit_2_names_field(tmp_path, capsys, extra, args, field):
    path = write_config(tmp_path, extra)
    out = tmp_path / "o"
    for experiment in ("grasp", "estimate"):
        rc = main(["run", experiment, "--config", str(path), "--out", str(out)] + args)
        assert rc == 2
        assert field in capsys.readouterr().err
    assert not out.exists()


def test_grasp_out_of_range_names_the_trial(tmp_path, capsys):
    # a soft cup at 4 N bends the finger past a low-pressure calibration
    path = write_config(
        tmp_path,
        {
            "calibration.peak_pressure": 30,
            "grasp.objects": {"plastic_cup": {"stiffness": 0.005}},
            "grasp.setpoints": [4.0],
            "grasp.n_trials": 1,
        },
    )
    rc = main(["run", "grasp", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grasp of plastic_cup at 4.0 N, trial 0: angle ")
    assert "outside calibrated range" in err


def test_run_switch_huge_target_exit_0(tmp_path, capsys):
    # the squares of a ~1e308 tracking error overflow; the RMS is taken scaled
    path = write_config(tmp_path, {"switching.target": 1e308})
    rc = main(["run", "switch", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    runs = json.loads((tmp_path / "o" / "switch_metrics.json").read_text())["runs"]
    assert [r["rms_error_post_settle"] for r in runs] == [pytest.approx(1e308)] * 2


def test_run_rejects_invalid_config(tmp_path, capsys):
    path = write_config(tmp_path, {"plant.filter_alpha": 2.0})
    rc = main(["run", "step", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "filter_alpha" in capsys.readouterr().err


def test_calibrate_writes_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "calibrate"
    assert manifest["seed"] == 7
    for finger in (1, 2, 3):
        assert (out / f"samples_finger{finger}.csv").exists()
        report = json.loads((out / f"calibration_finger{finger}.json").read_text())
        assert report["selected_degree"] == 4
    # every produced file is listed, and nothing else landed in out
    listed = set(manifest["outputs"]) | {"manifest.json"}
    actual = {p.name for p in out.iterdir()}
    assert actual == listed


def test_seed_flag_overrides_and_is_recorded(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "hardness", "--config", str(cfg), "--out", str(out), "--seed", "99"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99


SEGMENT_KEYS = {"target", "settled", "settling_time", "overshoot", "rms_error_post_settle"}


@pytest.mark.parametrize(
    "command, filename, pick, keys",
    [
        pytest.param(
            ["run", "step"], "step_metrics.json",
            lambda d: [seg for run in d["runs"] for seg in run["segments"]],
            SEGMENT_KEYS, id="step-segments",
        ),
        pytest.param(
            ["run", "switch"], "switch_metrics.json", lambda d: d["runs"],
            SEGMENT_KEYS | {"switch_time", "duty_range_post_settle"}, id="switch-runs",
        ),
        pytest.param(
            ["run", "estimate"], "estimation_errors.json", lambda d: d["rows"],
            {"seed", "position_angle", "target", "estimated", "true_force", "abs_error", "flagged"},
            id="estimation-rows",
        ),
        pytest.param(
            ["run", "grasp"], "grasp_sweep.json", lambda d: d["rows"],
            {"object", "target_force", "dropped_pct", "deformed_pct", "broken_pct", "n_trials"},
            id="grasp-rows",
        ),
        pytest.param(
            ["run", "hardness"], "hardness_result.json", lambda d: [d], {"stiff", "soft"}, id="hardness",
        ),
        pytest.param(
            ["run", "hardness"], "hardness_result.json", lambda d: list(d.values()),
            {"classification", "slope_deg_per_n"}, id="hardness-results",
        ),
        pytest.param(
            ["calibrate"], "calibration_finger1.json", lambda d: [d],
            {"records", "selected_degree", "n_samples", "angle_min", "angle_max"}, id="calibration",
        ),
        pytest.param(
            ["calibrate"], "calibration_finger1.json", lambda d: d["records"],
            {"degree", "weights", "rss", "sigma2_hat", "bic", "r_squared", "error"},
            id="calibration-records",
        ),
    ],
)
def test_run_json_schema(tmp_path, command, filename, pick, keys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 0
    items = pick(json.loads((out / filename).read_text()))
    assert items
    for item in items:
        assert set(item) == keys


def test_run_grasp_table_shape(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "grasp", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "grasp_sweep.json").read_text())
    rows = table["rows"]
    assert len(rows) == 2 * 3  # 2 set-points x 3 objects
    assert {r["object"] for r in rows} == {"plastic_cup", "paper_cup", "eggshell"}


def test_run_grasp_default_has_six_force_rows_per_object(tmp_path):
    # structure check on the default sweep, shrunk trials for speed
    cfg = write_config(tmp_path, {"grasp.setpoints": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0], "grasp.n_trials": 1})
    out = tmp_path / "out"
    assert main(["run", "grasp", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "grasp_sweep.json").read_text())
    for name in ("plastic_cup", "paper_cup", "eggshell"):
        assert len([r for r in table["rows"] if r["object"] == name]) == 6


def test_run_hardness_classification_schema(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "hardness", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "hardness_result.json").read_text())
    assert result["stiff"]["classification"] in ("stiff", "soft")
    assert result["soft"]["classification"] in ("stiff", "soft")


def test_softgrip_log_env_var_controls_stderr(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ, SOFTGRIP_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "softgrip.cli", "run", "hardness",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "INFO" in proc.stderr and "hardness" in proc.stderr
    assert proc.stdout == ""  # machine outputs only to files


def test_unwritable_out_dir_exit_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main(["run", "hardness", "--out", str(blocker / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_byte_identical_reruns_same_seed(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "switch", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "switch", "--config", str(cfg), "--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_manifest_rerun_reproduces_bytes_with_jobs_varying(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    assert main(["run", "grasp", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    # re-run from the manifest's embedded config with a different worker count
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "b"
    rc = main(
        [
            "run",
            manifest["experiment"],
            "--config",
            str(replay_cfg),
            "--out",
            str(out2),
            "--seed",
            str(manifest["seed"]),
            "--jobs",
            "3",
        ]
    )
    assert rc == 0
    assert tree_bytes(out1) == tree_bytes(out2)
