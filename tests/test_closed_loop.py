"""The closed-loop kernel against the reference tick loop.

``harness._closed_loop`` runs the step and switching experiments as one
plain-float loop.  The oracles below are the bodies those experiments had on
the reference tick loop (``reference.simulate``), driven by a real
``PiController`` (step) or ``Supervisor`` (switching).  Over generated
configs, models, objects, start duties and per-tick targets, the kernel
must give the same trace, every number compared as ``float.hex`` and every
one a Python ``float``, the same modes, the same number of
``FingerPlant.sense`` calls, and the same raised errors (type and message)
on the same tick.

The strategies reach zero gains, a warm-start duty, unreachable and negative
targets (saturation and anti-windup at both limits), ``output_min > 0``,
object stiffness 0, an ``angle_max`` low enough to saturate the bend, noise
sigmas of 0, ``filter_alpha`` 1.0, models without a calibrated range, and
three errors: an angle out of the calibrated range, a non-finite target,
and a non-finite contact estimate, during approach or under control.
Runs are at most 300 ticks, so the file runs in seconds.
"""


import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import PolynomialModel
from softgrip.config import config_from_dict, validate
from softgrip.control import Mode
from softgrip.errors import NonFiniteError, OutOfRangeError, SoftgripError
from softgrip.harness import Trace
from softgrip.plant import ObjectModel

from reference import Lane, build_supervisor, counted_senses, hexed, simulate, trace_row

# ---------------------------------------------------------------------------
# Oracles: the scalar bodies the kernel replaced


def oracle_closed_loop(cfg, plant_obj, model, obj, targets, duty, force_mode) -> Trace:
    """Step's ``PiController`` loop (``force_mode``) or switching's
    ``Supervisor`` loop on ``simulate``, one tick per target."""
    dt = cfg.controller.period
    trace = Trace()
    if force_mode:
        ctrl = harness._build_controller(cfg)

        def policy(i, reading, estimate):
            nonlocal duty
            duty = ctrl.step(targets[i], estimate.contact, duty)
            return duty

        def mode():
            return Mode.FORCE_CONTROL.value

    else:
        supervisor = build_supervisor(cfg, 0.0)
        supervisor.duty = duty
        ctrl = harness._build_controller(cfg)

        def policy(i, reading, estimate):
            supervisor.target_force = targets[i]
            return supervisor.step(ctrl, estimate, dt)

        def mode():
            return supervisor.mode.value

    def record(i, duty, reading, estimate):
        trace_row(trace, plant_obj, i * dt, duty, reading, estimate, mode())

    simulate(cfg, [Lane(plant_obj, model, obj, duty, policy, record)], len(targets))
    return trace


def oracle_step_response(cfg, seed, models) -> list:
    sc = cfg.step
    dt = cfg.controller.period
    duration = 2.0 * sc.segment_s
    n = int(round(duration / dt))
    targets = [sc.first_target if i * dt < sc.segment_s else sc.second_target for i in range(n)]
    results = []
    for s in range(sc.n_seeds):
        plant_obj = harness._build_plant(cfg, 0, harness.derive_seed(seed, "step", s))
        if sc.warm_start_duty > 0.0:
            plant_obj.pressure = cfg.plant.k_duty * sc.warm_start_duty
        obj, duty = sc.object.build(), sc.warm_start_duty
        trace = oracle_closed_loop(cfg, plant_obj, models[0], obj, targets, duty, True)
        metrics = [
            harness.compute_step_metrics(trace, sc.first_target, 0.0, sc.segment_s),
            harness.compute_step_metrics(trace, sc.second_target, sc.segment_s, duration),
        ]
        results.append(harness.StepResult(trace, metrics))
    return results


def oracle_switching_experiment(cfg, seed, models) -> list:
    sw = cfg.switching
    targets = [sw.target] * int(round(sw.duration_s / cfg.controller.period))
    results = []
    for s in range(sw.n_seeds):
        plant_obj = harness._build_plant(cfg, 0, harness.derive_seed(seed, "switching", s))
        trace = oracle_closed_loop(cfg, plant_obj, models[0], sw.object.build(), targets, 0.0, False)
        t_switch = next((t for t, m in zip(trace.t, trace.mode) if m == Mode.FORCE_CONTROL.value), None)
        metrics = harness.compute_step_metrics(trace, sw.target, t_switch or 0.0, sw.duration_s)
        duty_band = None
        if t_switch is not None and metrics.settled:
            post = [d for t, d in zip(trace.t, trace.duty) if t >= t_switch + metrics.settling_time]
            duty_band = (min(post), max(post))
        results.append(harness.SwitchingResult(trace, metrics, t_switch, duty_band))
    return results


# ---------------------------------------------------------------------------
# Comparison


def assert_floats(trace: Trace) -> None:
    """Every number of ``trace`` is a Python float, and every mode one of ``Mode``'s."""
    *numbers, modes = vars(trace).values()
    assert all(type(v) is float for column in numbers for v in column)
    assert set(modes) <= {m.value for m in Mode}
    assert all(len(column) == len(modes) for column in numbers)


def run(fn, *args) -> tuple:
    """(hexed result, raised error as (type, message), sense calls)."""
    with counted_senses() as calls:
        try:
            result = fn(*args)
        except SoftgripError as exc:
            return None, (type(exc), str(exc)), calls[0]
    for trace in result if isinstance(result, list) else [result]:
        assert_floats(trace if isinstance(trace, Trace) else trace.trace)
    return hexed(result), None, calls[0]


def run_both(cfg, model, obj, targets, duty, force_mode, seed) -> tuple:
    """The kernel's and the oracle's run on equal fresh plants."""

    def one(kernel):
        plant_obj = harness._build_plant(cfg, 0, seed)
        if force_mode and duty > 0.0:
            plant_obj.pressure = cfg.plant.k_duty * duty  # the step run's warm start
        return run(kernel, cfg, plant_obj, model, obj, targets, duty, force_mode)

    return one(harness._closed_loop), one(oracle_closed_loop)


# ---------------------------------------------------------------------------
# Strategies


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


QUARTIC = [0.02, 5e-4, 5e-6, 5e-8, 1e-8]
QUADRATIC = [0.02, 5e-4, 5e-6]


@st.composite
def config_specs(draw) -> dict:
    return {
        "plant": {
            "angle_max": draw(st.one_of(st.just(130.0), floats(8.0, 40.0))),
            "noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.1))),
            "angle_noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.2))),
            "filter_alpha": draw(st.one_of(st.just(1.0), floats(0.3, 1.0))),
            "internal_weights": draw(st.sampled_from([QUARTIC, QUADRATIC])),
        },
        "controller": {
            "kp": draw(st.one_of(st.just(0.0), floats(0.0, 30.0))),
            "ki": draw(st.one_of(st.just(0.0), floats(0.0, 10.0))),
            # below 0, a negative target drives the pressure to its floor
            "output_min": draw(st.one_of(st.just(0.0), floats(0.5, 20.0), floats(-20.0, -0.5))),
            "output_max": draw(floats(30.0, 100.0)),
        },
        "supervisor": {
            "approach_rate": draw(floats(5.0, 120.0)),
            "contact_threshold": draw(floats(0.05, 0.6)),
            "extrapolation_margin": draw(floats(0.0, 0.2)),
        },
    }


@st.composite
def fitted_models(draw) -> PolynomialModel:
    """The true quartic, perturbed, over a calibrated range or none."""
    weights = tuple(w * draw(floats(0.9, 1.1)) for w in QUARTIC[: draw(st.integers(2, 5))])
    if draw(st.booleans()):
        return PolynomialModel(len(weights) - 1, weights)
    return PolynomialModel(len(weights) - 1, weights, draw(floats(-1.0, 2.0)), draw(floats(30.0, 140.0)))


objects = st.builds(
    ObjectModel,
    position_angle=floats(0.0, 30.0),
    stiffness=st.one_of(st.just(0.0), floats(0.01, 2.0)),
)

# a target each tick, in runs: reachable, unreachable (50 N), negative, or not finite
target_values = st.one_of(floats(0.1, 5.0), st.sampled_from([50.0, -1.0]))


@st.composite
def target_lists(draw) -> list:
    runs = draw(
        st.lists(st.tuples(target_values, st.integers(1, 150)), min_size=1, max_size=3).filter(
            lambda rs: sum(n for _, n in rs) <= 300
        )
    )
    targets = [value for value, n in runs for _ in range(n)]
    if draw(st.integers(0, 9)) == 0:  # now and then a non-finite target from some tick on
        k = draw(st.integers(0, len(targets) - 1))
        value = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        targets[k:] = [value] * (len(targets) - k)
    return targets


def build(spec: dict):
    cfg = config_from_dict(spec)
    assert validate(cfg) == []
    return cfg


def run_case(spec, noise, model, obj, targets, duty, force_mode, seed) -> tuple:
    """The kernel's run, checked against the oracle's; ``noise``, if given,
    is a plant noise field and its value."""
    cfg = build(spec)
    if noise is not None:
        setattr(cfg.plant, *noise)  # past validate, which wants it finite
    kernel, oracle = run_both(cfg, model, obj, targets, duty, force_mode, seed)
    assert kernel == oracle
    return kernel


INF, NAN = float("inf"), float("nan")
RANGELESS = PolynomialModel(4, tuple(QUARTIC))
DEFAULT_MODEL = PolynomialModel(4, tuple(QUARTIC), 0.0, 110.0)
CUP = ObjectModel(position_angle=6.0, stiffness=0.28)
FORCE_INF, ANGLE_INF = ("noise_sigma", INF), ("angle_noise_sigma", INF)

# runs that each raise after some ticks: (run_case's arguments, error type, message start)
ERRORS = {
    # an infinite force noise: a non-finite contact estimate during approach, and under control
    "approach-contact": (
        dict(
            noise=FORCE_INF,
            model=RANGELESS,
            obj=CUP,
            targets=[2.5] * 20,
            duty=0.0,
            force_mode=False,
            seed=1,
        ),
        NonFiniteError,
        "contact estimate must be finite",
    ),
    "control-contact": (
        dict(
            noise=FORCE_INF,
            model=RANGELESS,
            obj=CUP,
            targets=[2.5] * 20,
            duty=8.0,
            force_mode=True,
            seed=1,
        ),
        NonFiniteError,
        "controller inputs must be finite",
    ),
    # the free bend leaves a narrow calibrated range before it reaches the object
    "out-of-range": (
        dict(
            noise=None,
            model=PolynomialModel(4, tuple(QUARTIC), 0.0, 5.0),
            obj=CUP,
            targets=[3.0] * 300,
            duty=0.0,
            force_mode=False,
            seed=2,
        ),
        OutOfRangeError,
        "angle ",
    ),
    "target-after-switch": (
        dict(
            noise=None,
            model=DEFAULT_MODEL,
            obj=CUP,
            targets=[2.5] * 100 + [NAN] * 100,
            duty=0.0,
            force_mode=False,
            seed=3,
        ),
        NonFiniteError,
        "controller inputs must be finite",
    ),
    "target-under-control": (
        dict(
            noise=None,
            model=DEFAULT_MODEL,
            obj=CUP,
            targets=[2.5] * 100 + [INF],
            duty=8.0,
            force_mode=True,
            seed=3,
        ),
        NonFiniteError,
        "controller inputs must be finite",
    ),
}


def with_error_examples(test):
    for kwargs, _, _ in ERRORS.values():
        test = example(spec={}, **kwargs)(test)
    return test


SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(
    spec=config_specs(),
    noise=st.sampled_from([None] * 8 + [FORCE_INF, ANGLE_INF]),
    model=fitted_models(),
    obj=objects,
    targets=target_lists(),
    duty=st.one_of(st.just(0.0), floats(0.0, 60.0)),
    force_mode=st.booleans(),
    seed=st.integers(0, 2**31),
)
@with_error_examples
# the integral freezes at the lower limit, and the next target shows it
@example(
    spec={"controller": {"kp": 10.0, "ki": 5.0}},
    noise=None,
    model=DEFAULT_MODEL,
    obj=CUP,
    targets=[-1.0] * 100 + [2.0] * 150,
    duty=30.0,
    force_mode=True,
    seed=5,
)
# an infinite angle noise, under a rangeless model, predicts NaN internal force
@example(
    spec={}, noise=ANGLE_INF, model=RANGELESS, obj=CUP, targets=[2.5] * 50, duty=0.0, force_mode=False, seed=6
)
def test_kernel_matches_scalar_loop(spec, noise, model, obj, targets, duty, force_mode, seed):
    run_case(spec, noise, model, obj, targets, duty, force_mode, seed)


@pytest.mark.parametrize("case", ERRORS)
def test_error_examples_raise_after_some_ticks(case):
    # each pinned example reaches its error whatever Hypothesis draws
    kwargs, kind, message = ERRORS[case]
    _, error, senses = run_case({}, **kwargs)
    assert error[0] is kind and error[1].startswith(message)
    assert 0 < senses <= len(kwargs["targets"])


def test_kernel_switches_once_and_records_modes():
    trace, error, senses = run_case({}, None, DEFAULT_MODEL, CUP, [2.5] * 300, 0.0, False, 4)
    assert error is None and senses == 300
    modes = trace[-1]
    switch = modes.index(Mode.FORCE_CONTROL.value)
    assert 0 < switch
    assert modes == [Mode.APPROACH.value] * switch + [Mode.FORCE_CONTROL.value] * (300 - switch)


# ---------------------------------------------------------------------------
# The experiments on the kernel against their bodies on the scalar loop

SHORT = {
    "step": {"segment_s": 3.0, "n_seeds": 2},
    "switching": {"duration_s": 4.0, "n_seeds": 3},
}


@pytest.mark.parametrize(
    "spec",
    [
        SHORT,
        {**SHORT, "controller": {"kp": 0.0, "ki": 0.0}},  # unsettled: metrics over the whole segment
        {
            **SHORT,
            "controller": {"output_min": 10.0},
            "plant": {"noise_sigma": 0.0, "angle_noise_sigma": 0.0},
        },
        {**SHORT, "step": {"segment_s": 1.0, "n_seeds": 1, "first_target": 50.0}},  # saturates
        # the finger never reaches the object: no switch
        {**SHORT, "switching": {"duration_s": 1.0, "n_seeds": 2, "object": {"position_angle": 80.0}}},
    ],
    ids=["short", "zero-gains", "output-min", "unreachable", "no-contact"],
)
def test_experiments_match_their_scalar_bodies(spec):
    cfg = build(spec)
    models = harness.calibrate_models(cfg, 5)
    assert run(harness.run_step_response, cfg, 5, models) == run(oracle_step_response, cfg, 5, models)
    assert run(harness.run_switching_experiment, cfg, 5, models) == run(
        oracle_switching_experiment, cfg, 5, models
    )


def test_detector_fires_at_a_contact_equal_to_its_threshold():
    quiet = {"plant": {"noise_sigma": 0.0, "angle_noise_sigma": 0.0}}
    trace, _, _ = run_case(quiet, None, DEFAULT_MODEL, CUP, [2.5] * 300, 0.0, False, 7)
    modes, contacts = trace[-1], trace[6]
    switch = modes.index(Mode.FORCE_CONTROL.value)
    # the last approach tick's estimate, made the threshold, fires the detector a tick early
    threshold = float.fromhex(contacts[switch - 1])
    assert threshold > 0.0
    spec = {**quiet, "supervisor": {"contact_threshold": threshold}}
    trace, _, _ = run_case(spec, None, DEFAULT_MODEL, CUP, [2.5] * 300, 0.0, False, 7)
    assert trace[-1].index(Mode.FORCE_CONTROL.value) == switch - 1
