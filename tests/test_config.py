"""Config loading and validation tests.

Covers:
- every float leaf of the default tree, the objects of the grasp table
  included, is named by ``validate`` when set to NaN or +/-inf; only the
  failure thresholds admit +inf
- the step and switching objects carry no failure draws: a config that
  sets one is refused at load, naming the key
- each problem names one field, for the fields that once shared a message
- the rules that span fields
- integer fields: an integral float loads as an int, any other value is a
  ``ConfigError`` naming the field
- each float leaf alone at +/-1e308, at tiny sizes: ``validate`` rejects it,
  or every command exits 0 or 1 without raising, and an exit-0 run writes
  only finite numbers
"""

import dataclasses
import json
import math
import re
import shutil

import pytest

from softgrip.cli import main
from softgrip.config import config_from_dict, config_to_dict, default_config, validate
from softgrip.control import DEFAULT_OUTPUT_MIN, PiController
from softgrip.errors import ConfigError

FAILURE_THRESHOLDS = ("deform_threshold", "break_threshold")
FAILURE_DRAWS = FAILURE_THRESHOLDS + ("deform_spread", "break_spread", "hold_requirement", "hold_spread")
# only grasp objects draw failures; these keys were once leaves too
NOT_LEAVES = [f"{obj}.{name}" for obj in ("step.object", "switching.object") for name in FAILURE_DRAWS]


def float_leaves(node, path=""):
    """Dotted paths of the float fields under ``node``, found from the dataclass fields."""
    for f in dataclasses.fields(node):
        value, where = getattr(node, f.name), path + f.name
        if dataclasses.is_dataclass(value):
            yield from float_leaves(value, where + ".")
        elif isinstance(value, dict):
            for name, obj in value.items():
                yield from float_leaves(obj, f"{where}.{name}.")
        elif isinstance(value, float):
            yield where


def with_value(path: str, value, cfg=None):
    """``cfg`` (the default config if None) with the field at dotted ``path`` set to ``value``."""
    cfg = cfg or default_config()
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node[part] if isinstance(node, dict) else getattr(node, part)
    setattr(node, leaf, value)
    return cfg


def nested(path: str, value) -> dict:
    """The JSON config object that sets only the field at dotted ``path``."""
    data = value
    for part in reversed(path.split(".")):
        data = {part: data}
    return data


LEAVES = list(float_leaves(default_config()))
NON_FINITE = [
    pytest.param(path, value, id=f"{path}={value}")
    for path in LEAVES + NOT_LEAVES
    for value in (math.nan, math.inf, -math.inf)
    if not (value == math.inf and path.rsplit(".", 1)[1] in FAILURE_THRESHOLDS)
]


def test_leaf_walk_reaches_every_object():
    assert "controller.kp" in LEAVES
    for obj in ("step.object", "switching.object"):
        assert f"{obj}.stiffness" in LEAVES
    for name in default_config().grasp.objects:
        assert f"grasp.objects.{name}.deform_threshold" in LEAVES
    assert not set(NOT_LEAVES) & set(LEAVES)


def test_default_config_validates():
    assert validate(default_config()) == []


@pytest.mark.parametrize("path, value", NON_FINITE)
def test_non_finite_float_leaf_is_named(path, value):
    if path in NOT_LEAVES:
        with pytest.raises(ConfigError, match=f"^unknown config key: {re.escape(path)}$"):
            config_from_dict(nested(path, value))
        return
    problems = validate(with_value(path, value))
    assert any(p.startswith(path + ":") for p in problems), problems


@pytest.mark.parametrize("path", [p for p in LEAVES if p.rsplit(".", 1)[1] in FAILURE_THRESHOLDS])
def test_failure_threshold_admits_inf(path):
    assert validate(with_value(path, math.inf)) == []


@pytest.mark.parametrize(
    "path, value",
    [
        ("step.n_seeds", 0),
        ("switching.n_seeds", 0),
        ("step.first_target", 0.0),
        ("step.second_target", -1.0),
        ("hardness.stiff_stiffness", 0.0),
        ("hardness.soft_stiffness", -0.1),
        ("calibration.cycles", 0),
        ("plant.filter_alpha", 0.0),
    ],
)
def test_each_problem_names_one_field(path, value):
    problems = validate(with_value(path, value))
    assert len(problems) == 1 and problems[0].startswith(path + ":"), problems


@pytest.mark.parametrize(
    "path, value",
    [
        ("controller.period", 0.02),  # above plant.tau_p / 2
        ("controller.output_min", 100.0),
        ("calibration.levels", 6),
        ("plant.finger_scales", [1.0, 1.0]),
        ("plant.internal_weights", []),
        ("estimation.positions", []),
        ("grasp.setpoints", []),
    ],
)
def test_cross_field_rules(path, value):
    problems = validate(with_value(path, value))
    assert len(problems) == 1 and problems[0].startswith(path + ":"), problems


@pytest.mark.parametrize("segment_s", [1.5 / 60.0, 1.0])
def test_step_segment_of_one_and_a_half_ticks_validates(segment_s):
    assert validate(with_value("step.segment_s", segment_s)) == []


def test_integral_float_loads_as_int():
    cfg = config_from_dict({"seed": 7.0, "calibration": {"cycles": 2.0}})
    assert (cfg.seed, cfg.calibration.cycles) == (7, 2)
    assert type(cfg.seed) is int and type(cfg.calibration.cycles) is int


@pytest.mark.parametrize("value", [2.7, math.inf, math.nan, "3", True])
def test_non_integral_count_names_the_field(value):
    with pytest.raises(ConfigError, match="calibration.cycles"):
        config_from_dict({"calibration": {"cycles": value}})


def test_controller_and_config_share_the_lower_duty_default():
    assert default_config().controller.output_min == PiController().output_min == DEFAULT_OUTPUT_MIN == 0.0
    assert config_to_dict(default_config())["controller"]["output_min"] == 0.0


# every command's smallest useful run: each still calibrates, presses, grasps
# and probes, and the whole sweep below takes a few seconds
TINY = {
    "calibration": {"cycles": 1, "levels": 8, "hold_s": 0.05, "rest_s": 0.5},
    "step": {"n_seeds": 1, "segment_s": 0.5},
    "switching": {"n_seeds": 1, "duration_s": 1.0},
    "estimation": {"n_seeds": 1, "positions": [15.0], "ramp_rate": 60.0, "settle_s": 0.05,
                   "window_s": 0.05, "timeout_s": 3.0},
    "grasp": {"setpoints": [1.0], "n_trials": 1, "duration_s": 1.0, "settle_window_s": 0.1},
    "hardness": {"duration_s": 4.0, "ramp_rate": 30.0},
}
COMMANDS = (
    ["calibrate"], ["run", "step"], ["run", "switch"], ["run", "grasp"], ["run", "hardness"], ["run", "estimate"],
)


def non_finite_outputs(out) -> list[str]:
    """The files under ``out``, the manifest aside, that hold a NaN or an inf:
    CSV cells are written by ``repr`` (nan, inf) and JSON by ``json.dump``
    (NaN, Infinity)."""
    token = re.compile(r"\b(nan|inf|NaN|Infinity)\b")
    return [f.name for f in sorted(out.iterdir()) if f.name != "manifest.json" and token.search(f.read_text())]


def test_extreme_float_leaf_is_rejected_or_runs_cleanly(tmp_path, capsys):
    """Each float leaf alone at +/-1e308: ``validate`` rejects it, or each
    command exits 0, or 1 with one ``error:`` line, without raising, and
    writes only finite numbers when it exits 0.  A rejection need not name
    the leaf: plant.angle_max feeds the internal-force rule, which names
    plant.internal_weights."""
    out, failures = tmp_path / "out", []
    assert validate(config_from_dict(TINY)) == []
    for path in LEAVES:
        for value in (1e308, -1e308):
            cfg = with_value(path, value, config_from_dict(TINY))
            if validate(cfg):
                continue
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config_to_dict(cfg)))
            for command in COMMANDS:
                key = f"{path}={value} {' '.join(command)}"
                try:
                    rc = main(command + ["--config", str(config_path), "--out", str(out)])
                except Exception as exc:  # each raising command is reported, and the sweep goes on
                    failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
                    continue
                err = capsys.readouterr().err
                if rc not in (0, 1) or (rc == 1 and not re.fullmatch(r"error: [^\n]*\n", err)):
                    failures.append(f"{key}: exit {rc}, stderr {err!r}")
                elif rc == 0 and (bad := non_finite_outputs(out)):
                    failures.append(f"{key}: non-finite numbers in {bad}")
                shutil.rmtree(out, ignore_errors=True)
    assert not failures, "\n".join(failures)
