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
"""

import dataclasses
import math
import re

import pytest

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


def with_value(path: str, value):
    """The default config with the field at dotted ``path`` set to ``value``."""
    cfg = default_config()
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
