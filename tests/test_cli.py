"""CLI tests.

Covers:
- exit codes: 0 success, 1 runtime failure, 2 usage/config errors
- a grasp that bends past the calibrated range names its object,
  set-point and trial
- a switch run whose tracking error squares past the float range exits 0,
  as does one whose contact comes on its last tick, and a hardness probe
  whose points in contact all read one force
- the exact key sets of every JSON output
- validate: normalized dump with defaults, per-field diagnostics, spans of
  more than sys.maxsize ticks
- a run whose spans cannot be held in memory exits 1 with one line
- outputs land only under --out; manifest written alongside
- --seed override recorded in the manifest
- byte-identical re-runs from the same seed and from the manifest's embedded
  config, with --jobs varying
"""

import csv
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

FAILURE_DRAWS = (
    "deform_threshold", "deform_spread", "break_threshold", "break_spread", "hold_requirement", "hold_spread",
)


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


@pytest.mark.parametrize(
    "contents",
    [
        b'{"seed": 1\xff}',  # not UTF-8
        b'{"seed": ' + b"9" * 5000 + b"}",  # past Python's 4,300-digit int limit
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        None,  # a directory
    ],
    ids=["non-utf8", "huge-int", "deep", "directory"],
)
def test_unreadable_config_exit_2_names_path(tmp_path, capsys, contents):
    path = tmp_path / "bad.json"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents)
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


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
    ]
    + [
        # only grasp objects draw failures; the step and switching objects have no such keys
        ({f"{obj}.{name}": 1.0}, [], f"unknown config key: {obj}.{name}")
        for obj in ("step.object", "switching.object")
        for name in FAILURE_DRAWS
    ]
    + [
        # the PWM duty ceiling, plant.MAX_DUTY
        ({"controller.output_max": 400.0}, [], "controller.output_max"),
        ({"hardness.max_duty": 400.0}, [], "hardness.max_duty"),
    ]
    + [
        # a negative threshold counts free-space readings as contact
        ({"hardness.min_contact_force": -1.0}, [], "hardness.min_contact_force"),
    ]
    + [
        # an internal force whose squares overflow calibration's sums, or that is inf
        ({"plant.internal_weights": [1e200, 1]}, [], "plant.internal_weights"),
        ({"plant.internal_weights": [1e308, 1e308]}, [], "plant.internal_weights"),
    ]
    + [
        # sensor noise whose squares overflow calibration's sums, or whose
        # angles' powers overflow its fit
        ({"plant.noise_sigma": 1e200}, [], "plant.noise_sigma"),
        ({"plant.angle_noise_sigma": 1e200}, [], "plant.angle_noise_sigma"),
    ]
    + [
        # a press whose duty never rises would time out every estimation cell
        ({"estimation.ramp_rate": -5.0}, [], "estimation.ramp_rate"),
        ({"estimation.ramp_rate": 0.0}, [], "estimation.ramp_rate"),
    ]
    + [
        # contact detection is a plain threshold, with no hysteresis to set
        ({"supervisor.hysteresis_ratio": 0.5}, [], "unknown config key: supervisor.hysteresis_ratio"),
    ]
    + [
        # more ticks than sys.maxsize: no list or array of them can be sized
        ({"switching.duration_s": 1e300}, [], "switching.duration_s"),
        ({"calibration.hold_s": 1e300}, [], "calibration.hold_s"),
        ({"step.segment_s": 1e300}, [], "step.segment_s"),
    ]
    + [
        # k_duty * duty overflows, and the pressure recurrence computes inf - inf
        ({"plant.k_duty": 1e308}, [], "plant.k_duty"),
        # a warm start past the duty ceiling; at 1e308 every trace row read NaN
        ({"step.warm_start_duty": 1e308, "plant.k_duty": 2.0}, [], "step.warm_start_duty"),
        # margin * span overflows, so no angle is out of range
        (
            {"hardness.position_angle": -1e154, "supervisor.extrapolation_margin": 1e308},
            [],
            "supervisor.extrapolation_margin",
        ),
        # a falling duty never presses, and overflows to -inf in the trace
        ({"hardness.ramp_rate": -1e308}, [], "hardness.ramp_rate"),
    ]
    + [
        # a contact force past 1e100 N: the estimate overflowed to a traceback in
        # the switch and grasp runs, the hardness slope read NaN, and a finger and
        # an object whose stiffnesses sum past the float range never touched
        (
            {"plant.finger_stiffness": 1e307, "plant.bend_gain": 1e3, "switching.object.stiffness": 1e307},
            [],
            "switching.object.stiffness",
        ),
        (
            {"plant.finger_stiffness": 1e307, "plant.bend_gain": 1e3, "grasp.objects.plastic_cup.stiffness": 1e307},
            [],
            "grasp.objects.plastic_cup.stiffness",
        ),
        ({"plant.finger_stiffness": 1e307, "hardness.stiff_stiffness": 1e308}, [], "hardness.stiff_stiffness"),
        ({"plant.finger_stiffness": 1e308, "switching.object.stiffness": 1e308}, [], "switching.object.stiffness"),
        # the overshoot fraction divides by the target: at 5e-324 it read Infinity
        ({"switching.target": 5e-324}, [], "switching.target"),
        # the calibration trace predicts the internal force at each noisy angle
        # read, and the quartic overflowed to inf there
        ({"plant.angle_noise_sigma": 1e100}, [], "plant.internal_weights"),
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


def test_validate_rejects_more_ticks_than_sys_maxsize(tmp_path, capsys):
    path = write_config(tmp_path, {"switching.duration_s": 1e300})
    assert main(["validate", "--config", str(path)]) == 2
    assert "switching.duration_s" in capsys.readouterr().err


# ~1e15 ticks each, 8 PB as float64: far past any address space, so the
# allocation fails at once (a smaller span could be granted by an
# overcommitting kernel and then fill memory)
@pytest.mark.parametrize(
    "extra",
    [
        ("switch", {"switching.duration_s": 1.7e13}),
        ("switch", {"calibration.hold_s": 1.7e13}),
        ("hardness", {"hardness.duration_s": 1.7e13}),
        ("step", {"step.segment_s": 8.5e12}),
    ],
)
def test_run_out_of_memory_exit_1(tmp_path, capsys, extra):
    experiment, overrides = extra
    path = write_config(tmp_path, overrides)
    rc = main(["run", experiment, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_failed_calibrate_makes_no_out_and_keeps_an_existing_one(tmp_path, capsys):
    path = write_config(tmp_path, {"calibration.hold_s": 1.7e13})
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "earlier.txt").write_text("an earlier run's file")
    assert main(["calibrate", "--config", str(path), "--out", str(kept)]) == 1
    assert [p.name for p in kept.iterdir()] == ["earlier.txt"]
    assert capsys.readouterr().err.count("error: out of memory") == 2


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
    assert not (tmp_path / "o").exists()


def test_run_switch_huge_target_exit_0(tmp_path, capsys):
    # the squares of a ~1e308 tracking error overflow; the RMS is taken scaled
    path = write_config(tmp_path, {"switching.target": 1e308})
    rc = main(["run", "switch", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    runs = json.loads((tmp_path / "o" / "switch_metrics.json").read_text())["runs"]
    assert [r["rms_error_post_settle"] for r in runs] == [pytest.approx(1e308)] * 2


def test_run_switch_contact_on_the_last_tick_exit_0(tmp_path, capsys):
    # contact comes on tick 64 of 65; the metric segment starts at that row
    path = write_config(tmp_path, {"switching.n_seeds": 1, "switching.duration_s": 1.0766666666666667})
    rc = main(["run", "switch", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    (run,) = json.loads((tmp_path / "o" / "switch_metrics.json").read_text())["runs"]
    assert run["switch_time"] == 64 * (1.0 / 60.0)


def test_run_hardness_points_of_one_force_exit_0(tmp_path, capsys):
    # noise off, no filter lag, no ramp: the finger rests in free space, and
    # every estimate reads one force a few ulps above the 0 N threshold
    path = write_config(
        tmp_path,
        {
            "plant.noise_sigma": 0.0,
            "plant.angle_noise_sigma": 0.0,
            "plant.filter_alpha": 1.0,
            "hardness.ramp_rate": 0.0,
            "hardness.min_contact_force": 0.0,
        },
    )
    out = tmp_path / "o"
    rc = main(["run", "hardness", "--config", str(path), "--out", str(out), "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    result = json.loads((out / "hardness_result.json").read_text())
    assert result == {name: {"classification": None, "slope_deg_per_n": None} for name in ("stiff", "soft")}
    with open(out / "hardness_trace_stiff.csv", newline="") as fh:
        estimates = [float(row["f_c_est"]) for row in csv.DictReader(fh)]
    in_contact = [e for e in estimates if e > 0.0]
    assert len(in_contact) >= 20 and len(set(in_contact)) == 1


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
    # the child imports softgrip from where this process does
    env = dict(os.environ, SOFTGRIP_LOG="INFO", PYTHONPATH=os.pathsep.join(sys.path))
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
