"""The grasp and estimation sweeps against the reference tick loop.

``harness._grasp_lanes`` runs the grasp sweep as lockstep batches of
lanes; ``harness.run_estimation_accuracy`` steps each position's press once
and reads every cell's sensors over it.  The oracles below are the
trial-by-trial bodies those sweeps had on the reference tick loop,
``reference.simulate``.  Over generated configs, seeds and models, the
sweeps must give the same outcomes, the same grips passed to
``shake_test``, the same estimation rows and the same raised errors (type
and message), every float compared as ``float.hex``.

The strategies reach noise sigma 0, object stiffness 0, ``output_min > 0``,
fingers whose models have different degrees, models without a calibrated
range, grasps that bend out of range, and estimation cells that time out,
flag "unreachable" or bend out of range.  Pinned grasps fail after every
lane has switched to force control, and in two lanes of one trial at two
stages of one tick, where the lower lane's error wins.  Pinned configs
check the grasp sweep split into smaller batches, the default grasp sweep
in one batch of 540 lanes against two of 270, empty sweeps, and presses
that cells share: a repeated position, an integral position beside its
float, and windows the timeout cuts short.  Sizes stay small (a cheap calibration, at most 8 grasp
trials of at most 2 s) so the file runs in seconds.

Both sweeps keep the reference's sensing contract: one
``FingerPlant.sense`` call per live lane-tick (a failing grasp trial's
lanes live through the tick it fails in), and grasp lanes that share
a plant seed (one object, trial and finger at other set-points) read one
noise stream, which refuses a read out of order.
"""

import contextlib
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import PolynomialModel
from softgrip.config import config_from_dict, default_config, validate
from softgrip.control import Mode, Supervisor
from softgrip.errors import NonFiniteError, OutOfRangeError, SoftgripError
from softgrip.harness import GraspOutcome, EstimationRow
from softgrip.plant import NOISE_BLOCK, ObjectModel

from reference import Lane, build_supervisor, counted_senses, hexed, simulate

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
        sup, ctrl = build_supervisor(cfg, targets[f]), harness._build_controller(cfg)

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
    if count < window_ticks:
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


@contextlib.contextmanager
def recorded_modes():
    """Each ``Supervisor.step``'s mode after the step, in call order."""
    modes = []
    real = Supervisor.step

    def spy(self, *args):
        duty = real(self, *args)
        modes.append(self.mode)
        return duty

    Supervisor.step = spy
    try:
        yield modes
    finally:
        Supervisor.step = real


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
# one soft grasp that bends out of range after its three fingers switched to force control
SWITCHED_THEN_OUT = {
    **OUT_OF_RANGE,
    "grasp": {
        **OUT_OF_RANGE["grasp"],
        "setpoints": [1.0],
        "n_trials": 1,
        "objects": {"plastic_cup": {"stiffness": 0.005}},
    },
}
# one grasp whose force readings overflow (noise sigma 1e308, set after a noiseless
# calibration) while the angle reads true and the duty sits at output_min
TWO_STAGES = {
    "plant": {"noise_sigma": 0.0, "angle_noise_sigma": 0.0},
    "controller": {"output_min": 20.0},
    "supervisor": {"extrapolation_margin": 0.0},
    "calibration": {"cycles": 1, "levels": 7, "hold_s": 0.1, "rest_s": 0.1},
    "grasp": {
        "setpoints": [1.0],
        "n_trials": 1,
        "duration_s": 1.0,
        "objects": {"paper_cup": {"position_angle": 60.0}},
    },
}


def two_stage_failure(seed: int, angle_max: float) -> tuple:
    """``TWO_STAGES`` at ``seed``, with rangeless models but finger 1's, which
    reads [0, ``angle_max``]: finger 1 bends past it at the tick in which
    finger 0's reading overflows in force control."""
    cfg = build({**TWO_STAGES, "seed": seed})
    models = fitted_models(cfg, None, True)
    models[1] = PolynomialModel(models[1].degree, models[1].weights, 0.0, angle_max)
    cfg.plant.noise_sigma = 1e308
    return cfg, models


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

# noisy plants, a repeated set-point, and estimation cells that end at different ticks
SHARED = {
    "seed": 11,
    "calibration": {"cycles": 1, "levels": 7, "hold_s": 0.1, "rest_s": 0.1},
    "grasp": {
        "setpoints": [1.0, 2.5, 1.0],
        "n_trials": 2,
        "duration_s": 1.5,
        "objects": {"eggshell": {}, "paper_cup": {}},
    },
    "estimation": {"n_seeds": 2, "positions": [20.0, 60.0, 110.0], "timeout_s": 3.0, "ramp_rate": 60.0},
}
# presses that cells share: a repeated position, an integral position beside
# its float (one press, two plant seeds), and windows cut short by the timeout
REPEATED = {**SHARED, "estimation": {"n_seeds": 2, "positions": [20.0, 60.0, 20.0], "ramp_rate": 60.0}}
INTEGRAL = {**SHARED, "estimation": {"n_seeds": 2, "positions": [15, 15.0, 22.0], "ramp_rate": 60.0}}
SHORT_WINDOW = {
    **SHARED,
    "estimation": {"n_seeds": 2, "positions": [20.0, 15], "timeout_s": 2.5, "ramp_rate": 60.0},
}

# Hypothesis cannot use function-scoped fixtures across examples, and none is needed
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(spec=config_specs(), degrees=degree_choices, rangeless=st.booleans())
@example(spec=OUT_OF_RANGE, degrees=None, rangeless=False)
@example(spec=NOISELESS, degrees=[2, 3, 4], rangeless=False)
@example(spec=SWITCHED_THEN_OUT, degrees=None, rangeless=False)
def test_grasp_batch_matches_scalar_trials(spec, degrees, rangeless):
    cfg = build(spec)
    assert_grasps_match(cfg, fitted_models(cfg, degrees, rangeless))


@SETTINGS
@given(spec=config_specs(), degrees=degree_choices, rangeless=st.booleans())
@example(spec=OUT_OF_RANGE, degrees=None, rangeless=False)
@example(spec=NOISELESS, degrees=[1, 2, 3], rangeless=True)
@example(spec=REPEATED, degrees=None, rangeless=False)
@example(spec=INTEGRAL, degrees=None, rangeless=False)
@example(spec=SHORT_WINDOW, degrees=None, rangeless=False)
def test_estimation_batch_matches_scalar_cells(spec, degrees, rangeless):
    cfg = build(spec)
    assert_estimates_match(cfg, fitted_models(cfg, degrees, rangeless))


def test_examples_reach_the_edge_cases(monkeypatch):
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
    assert error is None  # the timeout ends the 20-degree press 10 ticks into its 30-tick window
    assert [r[-1] for r in rows] == ["timeout", "unreachable at max duty"]
    cfg.estimation.timeout_s = 0.5
    rows, _, _ = assert_estimates_match(cfg, models)
    assert [r[-1] for r in rows] == ["timeout", "timeout"]

    # a one-trial batch fails when no lane approaches any more: the oracle's
    # three fingers had all switched by the last tick they completed
    cfg = build(SWITCHED_THEN_OUT)
    with recorded_modes() as modes:
        _, error, _ = assert_grasps_match(cfg, fitted_models(cfg, None, False))
    assert error[0] is OutOfRangeError
    done = len(modes) // 3 * 3  # the batch steps in ticks of three lanes
    assert done > 0 and modes[done - 3 : done] == [Mode.FORCE_CONTROL] * 3

    # lanes 0 and 1 fail in one tick: lane 1 on the range as it senses, then lane 0
    # on its overflowed reading in the PI; the lower lane's error wins, as in the
    # scalar loop.  At seed 58 lane 1 still approaches, at seed 4 all are in force control.
    raised = []
    real = harness._raised

    def spy(check, *args):
        raised.append(check.__qualname__)
        return real(check, *args)

    monkeypatch.setattr(harness, "_raised", spy)
    for seed, angle_max, lane_1_mode in ((58, 19.5, Mode.APPROACH), (4, 23.93, Mode.FORCE_CONTROL)):
        cfg, models = two_stage_failure(seed, angle_max)
        raised.clear()
        with recorded_modes() as modes:
            _, error, _ = assert_grasps_match(cfg, models)
        assert error == (NonFiniteError, "controller inputs must be finite")
        assert raised == ["internal_force", "PiController.step"]
        assert modes[len(modes) // 3 * 3 - 2] is lane_1_mode  # lane 1 at the last tick completed


def test_press_examples_reach_their_cases():
    # a repeated position repeats its cells' rows
    cfg = build(REPEATED)
    rows, error, _ = assert_estimates_match(cfg, fitted_models(cfg, None, False))
    assert error is None and rows[0] == rows[2] != rows[1] and rows[3] == rows[5]
    # 15 and 15.0 share a press but not a plant seed, and each row keeps its own position
    cfg = build(INTEGRAL)
    rows, error, _ = assert_estimates_match(cfg, fitted_models(cfg, None, False))
    assert error is None and [r[1] for r in rows[:2]] == [15, (15.0).hex()]
    assert rows[0][4] == rows[1][4] and rows[0][3] != rows[1][3]  # one truth, two estimates
    # the timeout cuts every window short, after its first tick: no estimate
    cfg = build(SHORT_WINDOW)
    rows, error, _ = assert_estimates_match(cfg, fitted_models(cfg, None, False))
    assert error is None and all(r[3:] == [None, None, None, "timeout"] for r in rows)
    window_ticks = max(1, round(cfg.estimation.window_s / cfg.controller.period))
    for position in cfg.estimation.positions:
        count = harness._press(cfg, position)[2]
        assert 1 <= count < window_ticks


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
    # a failing trial still raises first in task order across batches
    cfg = build(spec)
    models = fitted_models(cfg, None, False)
    whole = run(harness.run_grasp_sweep, cfg, None, 1, models)
    monkeypatch.setattr(harness, "BATCH_LANES", lanes)
    assert run(harness.run_grasp_sweep, cfg, None, 1, models) == whole


def test_default_grasp_sweep_in_one_batch_matches_two(monkeypatch):
    # one batch holds every set-point's lanes of a plant seed, which share a noise stream
    cfg = default_config()
    models = harness.calibrate_models(cfg)
    real, batches = harness._grasp_outcomes, []

    def counted(cfg, master, models, trials):
        batches.append(len(trials))
        return real(cfg, master, models, trials)

    monkeypatch.setattr(harness, "_grasp_outcomes", counted)
    sweeps = {}
    for lanes in (540, 270):
        monkeypatch.setattr(harness, "BATCH_LANES", lanes)
        sweeps[lanes] = run(harness.run_grasp_sweep, cfg, None, 1, models)
    assert batches == [180, 90, 90]
    assert sweeps[540] == sweeps[270]
    assert sweeps[540][1] is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_sweeps_return_nothing(jobs):
    cfg = build(NOISELESS)
    models = fitted_models(cfg, None, False)
    assert harness._grasp_outcomes(cfg, cfg.seed, models, []) == []
    cfg.grasp.objects = {}
    assert harness.run_grasp_sweep(cfg, None, jobs, models).rows == []
    cfg.estimation.positions = []
    assert harness.run_estimation_accuracy(cfg, None, models) == []


# ---------------------------------------------------------------------------
# Sensing: one sense call per live lane-tick, one noise stream per plant seed

def test_one_sense_call_per_live_lane_tick():
    cfg = build(SHARED)
    models = fitted_models(cfg, None, False)
    trials = grasp_trials(cfg)
    with counted_senses() as calls:
        outcomes, error, _ = run(harness._grasp_outcomes, cfg, cfg.seed, models, trials)
        assert error is None and len(outcomes) == len(trials) == 12
        # every grasp lane lives for the whole run
        assert calls[0] == 3 * len(trials) * int(round(cfg.grasp.duration_s / cfg.controller.period))
        # each scalar tick is one sense call, so the oracle counts the live lane-ticks
        calls[0] = 0
        rows, error, _ = run(harness.run_estimation_accuracy, cfg, cfg.seed, models)
        batched = calls[0]
        calls[0] = 0
        assert (rows, error) == run(oracle_estimation_rows, cfg, cfg.seed, models)[:2]
        assert batched == calls[0] > 0
    assert len({r[-1] for r in rows}) > 1  # the cells end in different ways, at different ticks

    # in a failing batch a trial's lanes all sense through the tick it fails in,
    # where the scalar loop stops at the failing lane; the other trials run on
    cfg = build(OUT_OF_RANGE)
    models = fitted_models(cfg, None, False)
    trials = grasp_trials(cfg)
    with counted_senses() as calls:
        error = run(harness._grasp_outcomes, cfg, cfg.seed, models, trials)[1]
        batched, calls[0] = calls[0], 0
        failed = 0
        for t in trials:
            before = calls[0]
            try:
                oracle_grasp_trial(cfg, *t, cfg.seed, models)
            except OutOfRangeError:
                failed += 1
            calls[0] = before + -(-(calls[0] - before) // 3) * 3
    assert error[0] is OutOfRangeError and failed > 1
    assert batched == calls[0] < 3 * len(trials) * int(round(cfg.grasp.duration_s / cfg.controller.period))


def test_grasp_lanes_of_one_plant_seed_share_one_stream(monkeypatch):
    cfg = build(SHARED)
    models = fitted_models(cfg, None, False)
    batches = []
    real = harness._grasp_lanes

    def spy(cfg, plants, *args):
        batches.append(plants)
        return real(cfg, plants, *args)

    monkeypatch.setattr(harness, "_grasp_lanes", spy)
    trials = grasp_trials(cfg)
    assert assert_grasps_match(cfg, models)[1] is None  # the outcomes are the unshared oracle's
    (plants,) = batches
    seeds = [
        harness.derive_seed(cfg.seed, "grasp", name, trial, "plant", f)
        for name, _, trial in trials
        for f in range(3)
    ]
    streams_of = {}
    for seed, plant in zip(seeds, plants):
        streams_of.setdefault(seed, set()).add(id(plant.noise))
    assert all(len(streams) == 1 for streams in streams_of.values())
    # three set-points share each seed, and the streams in use are one per seed
    assert len({id(p.noise) for p in plants}) == len(streams_of) == len(plants) // 3


def test_a_shared_stream_read_out_of_order_raises():
    cfg = build(SHARED)
    ahead, behind, alone = (harness._build_plant(cfg, 0, 5) for _ in range(3))
    behind.noise = ahead.noise

    def reading(plant):
        angle_meas, force_meas = plant.sense(10.0, 1.0)
        return angle_meas.hex(), force_meas.hex()

    for _ in range(300):  # in lockstep, two values per sense: into the stream's second block
        assert reading(ahead) == reading(behind) == reading(alone)
    for _ in range(NOISE_BLOCK):  # two blocks further on
        reading(ahead)
    # the behind plant still reads the block it holds, then the stream has left it behind
    for _ in range(NOISE_BLOCK - 300):
        assert reading(behind) == reading(alone)
    with pytest.raises(RuntimeError, match="out of order"):
        behind.sense(10.0, 1.0)
