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
- the same property over one to three leaves at a time, each drawn at an
  edge of its bound or at a value where floats overflow (Hypothesis)
"""

import dataclasses
import json
import math
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def command_failures(cfg, tmp_path, capsys, key: str) -> list[str]:
    """Run each command on ``cfg`` through ``cli.main``: one line per command
    that raised, exited other than 0, or 1 with one ``error:`` line, or exited
    0 having written a non-finite number."""
    out, failures = tmp_path / "out", []
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)))
    for command in COMMANDS:
        where = f"{key} {' '.join(command)}"
        try:
            rc = main(command + ["--config", str(config_path), "--out", str(out)])
        except Exception as exc:  # each raising command is reported, and the sweep goes on
            failures.append(f"{where}: raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if rc not in (0, 1) or (rc == 1 and not re.fullmatch(r"error: [^\n]*\n", err)):
            failures.append(f"{where}: exit {rc}, stderr {err!r}")
        elif rc == 0 and (bad := non_finite_outputs(out)):
            failures.append(f"{where}: non-finite numbers in {bad}")
        shutil.rmtree(out, ignore_errors=True)
    return failures


def test_extreme_float_leaf_is_rejected_or_runs_cleanly(tmp_path, capsys):
    """Each float leaf alone at +/-1e308: ``validate`` rejects it, or each
    command exits 0, or 1 with one ``error:`` line, without raising, and
    writes only finite numbers when it exits 0.  A rejection need not name
    the leaf: plant.angle_max feeds the internal-force rule, which names
    plant.internal_weights."""
    failures = []
    assert validate(config_from_dict(TINY)) == []
    for path in LEAVES:
        for value in (1e308, -1e308):
            cfg = with_value(path, value, config_from_dict(TINY))
            if not validate(cfg):
                failures += command_failures(cfg, tmp_path, capsys, f"{path}={value}")
    assert not failures, "\n".join(failures)


# values at which floats overflow, underflow or change sign, and the largest
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-154, -1e-154, 1e154, -1e154, 1e307, 1e308, -1e308)


def bound_edges(path: str) -> list[float]:
    """The floats at and on either side of each edge of the leaf's ``_Bound``,
    found by bisecting each gap between ``SPECIALS`` and the leaf's ``TINY``
    value where the bound flips.  A span's bound counts control ticks, and
    only its lower edge is drawn: no size goes past ``TINY`` (ROADMAP item 10)."""
    cfg = config_from_dict(TINY)
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node[part] if isinstance(node, dict) else getattr(node, part)
    bound = next(f for f in dataclasses.fields(node) if f.name == leaf).metadata.get("bound")
    if bound is None:
        return []
    tiny = getattr(node, leaf)

    def admits(value):
        return bound.admits(value, cfg.controller.period)

    grid, edges = sorted({*SPECIALS, tiny}), []
    for lo, hi in zip(grid, grid[1:]):
        if admits(lo) == admits(hi) or (bound.in_ticks and lo >= tiny):
            continue
        while lo < (mid := lo / 2 + hi / 2) < hi:
            lo, hi = (mid, hi) if admits(mid) == admits(lo) else (lo, mid)
        edges += [math.nextafter(lo, -math.inf), lo, hi, math.nextafter(hi, math.inf)]
    return edges


LEAF_VALUES = {path: [*SPECIALS, *bound_edges(path)] for path in LEAVES}  # a set would merge -0.0 into 0.0


def test_bound_edges_are_found():
    assert bound_edges("controller.kp") == []  # no bound: any finite value
    alpha = bound_edges("plant.filter_alpha")  # (0, 1]
    assert alpha[:4] == [-5e-324, 0.0, 5e-324, 1e-323] and alpha[5] == 1.0
    assert 1e-100 in bound_edges("switching.target") and 1e100 in bound_edges("plant.k_duty")
    # a span's lower edge only, in control ticks: 0.5 of one, or 1.5 for a step segment
    assert 0.025 in bound_edges("step.segment_s") and max(bound_edges("grasp.duration_s")) < 0.01


@st.composite
def leaf_settings(draw) -> list:
    paths = draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=3, unique=True))
    return [(path, draw(st.sampled_from(LEAF_VALUES[path]))) for path in paths]


def test_config_fuzz_is_rejected_or_runs_cleanly(request, tmp_path, capsys):
    """One to three float leaves over ``TINY``, each at an edge of its bound
    or a value where floats overflow: ``validate`` names a field, or each
    command exits 0, or 1 with one ``error:`` line, without raising, and
    writes only finite numbers when it exits 0.  Tier-1 draws a fixed set of
    examples; ``--hypothesis-seed`` draws others."""

    @settings(max_examples=60, deadline=None, derandomize=request.config.getoption("--hypothesis-seed") is None)
    @given(leaves=leaf_settings())
    def rejected_or_clean(leaves):
        cfg = config_from_dict(TINY)
        for path, value in leaves:
            with_value(path, value, cfg)
        problems = validate(cfg)
        if problems:
            assert all(re.match(r"[a-z_.\[\]0-9]+: ", p) for p in problems), problems
            return
        failures = command_failures(cfg, tmp_path, capsys, repr(leaves))
        assert not failures, "\n".join(failures)

    rejected_or_clean()
