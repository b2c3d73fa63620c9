"""The batched tick kernel against the scalar one.

``harness.simulate_lanes`` runs the grasp and estimation sweeps as lockstep
batches of lanes.  The oracles below are the trial-by-trial bodies
those sweeps had on the scalar ``harness.simulate``.  Over generated configs,
seeds and models, the batch must give the same outcomes, the same grips
passed to ``shake_test``, the same estimation rows and the same raised
errors (type and message), every float compared as ``float.hex``.

The strategies reach noise sigma 0, object stiffness 0, ``output_min > 0``,
fingers whose models have different degrees, models without a calibrated
range, grasps that bend out of range, and estimation cells that time out,
flag "unreachable" or bend out of range.  Pinned configs check sweeps
split into smaller batches, and empty sweeps.  Sizes stay small (a cheap
calibration, at most 8 grasp trials of at most 2 s) so the file runs in
seconds.
"""

import contextlib
import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import PolynomialModel
from softgrip.config import config_from_dict, validate
from softgrip.errors import NonFiniteError, OutOfRangeError, SoftgripError
from softgrip.harness import GraspOutcome, EstimationRow, Lane, simulate
from softgrip.plant import ObjectModel

# ---------------------------------------------------------------------------
# Oracles: the scalar bodies the batch replaced


def oracle_grasp_trial(cfg, object_name, setpoint, trial, master, models) -> GraspOutcome:
    oc = cfg.grasp.objects[object_name]
    obj = oc.build()
    trial_rng = random.Random(harness.derive_seed(master, "grasp", object_name, trial, "thresholds"))
    deform_thr = (
        trial_rng.gauss(obj.deform_threshold, obj.deform_spread)
        if math.isfinite(obj.deform_threshold)
        else math.inf
    )
    break_thr = (
        trial_rng.gauss(obj.break_threshold, obj.break_spread)
        if math.isfinite(obj.break_threshold)
        else math.inf
    )
    targets = [setpoint / 2.0, setpoint / 2.0, setpoint]
    dt = cfg.controller.period
    n = int(round(cfg.grasp.duration_s / dt))
    tail_from = max(0, n - int(round(cfg.grasp.settle_window_s / dt)))
    peak = [0.0, 0.0, 0.0]
    tail_sums = [0.0, 0.0, 0.0]

    def finger_lane(f: int) -> Lane:
        p = harness._build_plant(cfg, f, harness.derive_seed(master, "grasp", object_name, trial, "plant", f))
        sup, ctrl = harness._build_supervisor(cfg, targets[f]), harness._build_controller(cfg)

        def supervise(i, reading, estimate):
            return sup.step(ctrl, estimate, dt)

        def record(i, duty, reading, estimate):
            if p.contact_force > peak[f]:
                peak[f] = p.contact_force
            if i >= tail_from:
                tail_sums[f] += p.contact_force

        return Lane(p, models[f], obj, 0.0, supervise, record)

    try:
        simulate(cfg, [finger_lane(f) for f in range(3)], n)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"grasp of {object_name} at {setpoint} N, trial {trial}: {exc}") from exc
    grip = sum(tail_sums[f] / (n - tail_from) for f in range(3))
    deformed = any(pk > deform_thr for pk in peak)
    broken = any(pk > break_thr for pk in peak)
    shake_rng = random.Random(harness.derive_seed(master, "grasp", object_name, trial, "shake"))
    held = harness.shake_test(grip, obj, shake_rng)
    return GraspOutcome(dropped=not held, deformed=deformed, broken=broken)


def oracle_estimation_cell(cfg, model, seed, position) -> EstimationRow:
    est = cfg.estimation
    dt = cfg.controller.period
    obj = ObjectModel(position_angle=position, stiffness=est.scale_stiffness)
    plant_obj = harness._build_plant(cfg, 0, harness.derive_seed(seed, "estimation", position, "plant"))
    settle_ticks = max(1, int(round(est.settle_s / dt)))
    window_ticks = max(1, int(round(est.window_s / dt)))
    duty = 0.0
    pressed_at = None  # tick the target was reached; settle, then measure a window
    est_acc, true_acc, count = 0.0, 0.0, 0
    flagged = None

    def press_settle_measure(i, reading, estimate):
        nonlocal duty, pressed_at, est_acc, true_acc, count, flagged
        if pressed_at is None:
            if plant_obj.contact_force >= est.target:
                pressed_at = i
            elif duty >= 100.0:
                flagged = "unreachable at max duty"
                return None
            else:
                duty = min(100.0, duty + est.ramp_rate * dt)
        elif i > pressed_at + settle_ticks:
            est_acc += estimate.contact
            true_acc += plant_obj.contact_force
            count += 1
            if count == window_ticks:
                return None
        return duty

    lane = Lane(plant_obj, model, obj, duty, press_settle_measure)
    simulate(cfg, [lane], int(round(est.timeout_s / dt)))
    if count == 0:
        return EstimationRow(seed, position, est.target, None, None, None, flagged=flagged or "timeout")
    estimated = est_acc / count
    true_force = true_acc / count
    return EstimationRow(seed, position, est.target, estimated, true_force, abs(estimated - true_force))


def oracle_estimation_rows(cfg, master, models) -> list:
    return [
        oracle_estimation_cell(cfg, models[0], harness.derive_seed(master, "estimation-seed", s), position)
        for s in range(cfg.estimation.n_seeds)
        for position in cfg.estimation.positions
    ]


# ---------------------------------------------------------------------------
# Comparison


def hexed(value):
    """``value`` with every float inside it replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return hexed(dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


@contextlib.contextmanager
def recorded_grips():
    """The grips ``shake_test`` receives, as ``float.hex``, in call order."""
    grips = []
    real = harness.shake_test

    def spy(grip, obj, rng):
        grips.append(grip.hex())
        return real(grip, obj, rng)

    harness.shake_test = spy
    try:
        yield grips
    finally:
        harness.shake_test = real


def run(fn, *args) -> tuple:
    """(hexed result, raised error as (type, message), grips)."""
    with recorded_grips() as grips:
        try:
            result = fn(*args)
        except (SoftgripError, ValueError) as exc:
            return None, (type(exc), str(exc)), grips
    return hexed(result), None, grips


# ---------------------------------------------------------------------------
# Strategies


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


QUARTIC = [0.02, 5e-4, 5e-6, 5e-8, 1e-8]
QUADRATIC = [0.02, 5e-4, 5e-6]
OBJECT_NAMES = ("plastic_cup", "paper_cup", "eggshell")

objects = st.fixed_dictionaries(
    {
        "position_angle": floats(0.0, 30.0),
        "stiffness": st.one_of(st.just(0.0), floats(0.002, 1.0)),
        "deform_threshold": st.one_of(st.just("inf"), floats(0.2, 3.0)),
        "deform_spread": floats(0.0, 0.5),
        "break_threshold": st.one_of(st.just("inf"), floats(0.2, 4.0)),
        "break_spread": floats(0.0, 0.5),
        "hold_requirement": floats(0.0, 3.0),
        "hold_spread": floats(0.0, 1.0),
    }
)


@st.composite
def config_specs(draw) -> dict:
    """A small config as JSON; ``grasp.objects`` lists every object the sweep runs."""
    return {
        "seed": draw(st.integers(0, 2**31)),
        "plant": {
            "noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.1))),
            "angle_noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.2))),
            "filter_alpha": draw(floats(0.3, 1.0)),
            "internal_weights": draw(st.sampled_from([QUARTIC, QUADRATIC])),
        },
        "controller": {
            "kp": draw(floats(0.0, 20.0)),
            "ki": draw(floats(0.0, 5.0)),
            "output_min": draw(st.one_of(st.just(0.0), floats(0.5, 20.0))),
            "output_max": draw(floats(50.0, 100.0)),
        },
        "supervisor": {
            "approach_rate": draw(floats(5.0, 60.0)),
            "contact_threshold": draw(floats(0.05, 0.6)),
            "extrapolation_margin": draw(floats(0.0, 0.2)),
        },
        "calibration": {
            "cycles": 1,
            "levels": 7,
            "hold_s": 0.1,
            "rest_s": 0.1,
            "max_degree": 4,
            "peak_pressure": draw(st.sampled_from([25.0, 40.0, 60.0])),
        },
        "grasp": {
            "setpoints": draw(st.lists(floats(0.25, 5.0), min_size=1, max_size=2)),
            "n_trials": draw(st.integers(1, 2)),
            "duration_s": draw(floats(0.2, 2.0)),
            "settle_window_s": draw(floats(0.05, 1.0)),
            "objects": draw(st.dictionaries(st.sampled_from(OBJECT_NAMES), objects, min_size=1, max_size=2)),
        },
        "estimation": {
            "n_seeds": draw(st.integers(1, 2)),
            "positions": draw(st.lists(floats(5.0, 130.0), min_size=1, max_size=3)),
            "scale_stiffness": draw(floats(0.05, 1.0)),
            "target": draw(floats(0.5, 3.0)),
            "ramp_rate": draw(floats(5.0, 150.0)),
            "settle_s": draw(floats(0.02, 0.5)),
            "window_s": draw(floats(0.02, 0.5)),
            "timeout_s": draw(floats(0.3, 2.0)),
        },
    }


# per finger: the calibrated selection, or a degree each (records that failed fall back)
degree_choices = st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=3, max_size=3))


def build(spec: dict):
    cfg = config_from_dict(spec)
    cfg.grasp.objects = {name: cfg.grasp.objects[name] for name in spec["grasp"]["objects"]}
    assert validate(cfg) == []
    return cfg


def fitted_models(cfg, degrees, rangeless: bool) -> list:
    """Per-finger models from a cheap calibration, at the chosen degrees."""
    models = []
    for f, report in enumerate(harness.run_calibration_experiment(cfg).reports):
        fits = {r.degree: r for r in report.records if r.weights is not None}
        degree = report.selected_degree if degrees is None or degrees[f] not in fits else degrees[f]
        bounds = (None, None) if rangeless else (report.angle_min, report.angle_max)
        models.append(PolynomialModel(degree, fits[degree].weights, *bounds))
    return models


def grasp_trials(cfg) -> list:
    names = sorted(cfg.grasp.objects)
    setpoints, n = cfg.grasp.setpoints, cfg.grasp.n_trials
    return [(name, float(sp), t) for name in names for sp in setpoints for t in range(n)]


def assert_grasps_match(cfg, models) -> tuple:
    trials = grasp_trials(cfg)
    batch = run(harness._grasp_outcomes, cfg, cfg.seed, models, trials)
    oracle = run(lambda: [oracle_grasp_trial(cfg, *t, cfg.seed, models) for t in trials])
    assert batch == oracle
    return batch


def assert_estimates_match(cfg, models) -> tuple:
    batch = run(harness.run_estimation_accuracy, cfg, cfg.seed, models)
    oracle = run(oracle_estimation_rows, cfg, cfg.seed, models)
    assert batch == oracle
    return batch


# the grasp that bends past a low-pressure calibration (tests/test_cli.py)
OUT_OF_RANGE = {
    "seed": 7,
    "supervisor": {"approach_rate": 40.0},
    "calibration": {"cycles": 1, "levels": 7, "hold_s": 0.1, "rest_s": 0.1, "peak_pressure": 30.0},
    "grasp": {
        "setpoints": [1.0, 4.0],
        "n_trials": 2,
        "duration_s": 2.0,
        "objects": {"plastic_cup": {"stiffness": 0.005}, "eggshell": {}},
    },
    "estimation": {"n_seeds": 1, "positions": [20.0, 70.0], "timeout_s": 2.0, "ramp_rate": 60.0},
}
# noise-free quadratic plants, mixed model degrees, stiffness 0, output_min > 0
NOISELESS = {
    "seed": 3,
    "plant": {"noise_sigma": 0.0, "angle_noise_sigma": 0.0, "internal_weights": QUADRATIC},
    "controller": {"output_min": 5.0},
    "calibration": {"cycles": 1, "levels": 7, "hold_s": 0.1, "rest_s": 0.1},
    "grasp": {
        "setpoints": [1.0],
        "n_trials": 1,
        "duration_s": 2.0,
        "objects": {"eggshell": {}, "paper_cup": {"stiffness": 0.0}},
    },
    "estimation": {"n_seeds": 1, "positions": [20.0, 125.0], "timeout_s": 2.0, "ramp_rate": 100.0},
}

# Hypothesis cannot use function-scoped fixtures across examples, and none is needed
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(spec=config_specs(), degrees=degree_choices, rangeless=st.booleans())
@example(spec=OUT_OF_RANGE, degrees=None, rangeless=False)
@example(spec=NOISELESS, degrees=[2, 3, 4], rangeless=False)
def test_grasp_batch_matches_scalar_trials(spec, degrees, rangeless):
    cfg = build(spec)
    assert_grasps_match(cfg, fitted_models(cfg, degrees, rangeless))


@SETTINGS
@given(spec=config_specs(), degrees=degree_choices, rangeless=st.booleans())
@example(spec=OUT_OF_RANGE, degrees=None, rangeless=False)
@example(spec=NOISELESS, degrees=[1, 2, 3], rangeless=True)
def test_estimation_batch_matches_scalar_cells(spec, degrees, rangeless):
    cfg = build(spec)
    assert_estimates_match(cfg, fitted_models(cfg, degrees, rangeless))


def test_examples_reach_the_edge_cases():
    # the pinned examples above hit each case whatever Hypothesis draws
    cfg = build(OUT_OF_RANGE)
    _, error, grips = assert_grasps_match(cfg, fitted_models(cfg, None, False))
    assert error[0] is OutOfRangeError
    assert error[1].startswith("grasp of plastic_cup at 1.0 N, trial 0: angle ")
    assert len(grips) == 4  # the eggshell's trials ran before the failing one
    _, error, _ = assert_estimates_match(cfg, fitted_models(cfg, None, False))
    assert error[0] is OutOfRangeError and error[1].startswith("angle ")

    cfg = build(NOISELESS)
    models = fitted_models(cfg, [2, 3, 4], False)
    assert [m.degree for m in models] == [2, 3, 4]
    outcomes, error, grips = assert_grasps_match(cfg, models)
    assert error is None and len(grips) == len(outcomes) == 2
    rows, error, _ = assert_estimates_match(cfg, models)
    assert error is None
    assert [r[-1] for r in rows] == [None, "unreachable at max duty"]
    cfg.estimation.timeout_s = 0.5
    rows, _, _ = assert_estimates_match(cfg, models)
    assert [r[-1] for r in rows] == ["timeout", "timeout"]


@pytest.mark.parametrize("seed", range(6))
def test_non_finite_estimates_raise_the_scalar_errors(seed):
    # models without a range let a huge noise reach the detector and the PI
    cfg = build({**NOISELESS, "seed": seed})
    models = fitted_models(cfg, None, True)
    cfg.plant.noise_sigma = 1e308  # after calibrating, whose fit needs finite samples
    cfg.grasp.n_trials = 3
    _, error, _ = assert_grasps_match(cfg, models)
    assert error in (
        (ValueError, "contact estimate must be finite"),
        (NonFiniteError, "controller inputs must be finite"),
    )


@settings(max_examples=3, deadline=None)
@given(spec=config_specs())
def test_grasp_sweep_serial_equals_two_jobs(spec):
    cfg = build(spec)
    models = fitted_models(cfg, None, False)
    # the workers call shake_test out of the spy's reach: compare tables and errors
    serial = run(harness.run_grasp_sweep, cfg, None, 1, models)
    assert run(harness.run_grasp_sweep, cfg, None, 2, models)[:2] == serial[:2]


@pytest.mark.parametrize("lanes", [1, 6])
@pytest.mark.parametrize("spec", [OUT_OF_RANGE, NOISELESS], ids=["out-of-range", "noiseless"])
def test_sweeps_in_small_batches_match_one_batch(monkeypatch, spec, lanes):
    # a failing trial or cell still raises first in task order across batches
    cfg = build(spec)
    models = fitted_models(cfg, None, False)

    def sweeps():
        return run(harness.run_grasp_sweep, cfg, None, 1, models), run(
            harness.run_estimation_accuracy, cfg, None, models
        )

    whole = sweeps()
    monkeypatch.setattr(harness, "BATCH_LANES", lanes)
    assert sweeps() == whole


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_sweeps_return_nothing(jobs):
    cfg = build(NOISELESS)
    models = fitted_models(cfg, None, False)
    assert harness._grasp_outcomes(cfg, cfg.seed, models, []) == []
    cfg.grasp.objects = {}
    assert harness.run_grasp_sweep(cfg, None, jobs, models).rows == []
    cfg.estimation.positions = []
    assert harness.run_estimation_accuracy(cfg, None, models) == []
