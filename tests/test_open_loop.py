"""The open-loop kernel and the hardness probe against the reference.

``harness._open_loop`` steps ``FingerPlant.step``'s recurrence over a duty
schedule fixed in advance, the pressure in floats and the bend and contact
in numpy.  Over generated plants, schedules, objects (stiffness 0 and none
included) and start pressures it must leave, after every step, the state
``FingerPlant.step`` leaves, every float compared as ``float.hex``, and the
plant in the last step's state.

``harness.probe_hardness`` runs its ramp on that kernel.  The oracle below
is the body it had on the reference tick loop (``reference.simulate``): a
ramp policy fed one tick at a time.  Over generated configs, models and
objects the two must give the same result and trace, the same number of
``FingerPlant.sense`` calls, and the same raised error (type and message)
on the same tick.  The strategies reach noise sigma 0, ``filter_alpha``
1.0, a ramp rate of 0, objects behind the rest angle, bends that saturate
at ``angle_max``, and models whose narrow calibrated range the ramp leaves.
"""


import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import PolynomialModel
from softgrip.config import config_from_dict, validate
from softgrip.errors import OutOfRangeError, SoftgripError
from softgrip.harness import HardnessResult, Trace
from softgrip.plant import FingerPlant, ObjectModel

from reference import Lane, counted_senses, hexed, simulate, trace_row


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# _open_loop against FingerPlant.step

plant_params = st.fixed_dictionaries(
    {
        "tau_p": floats(0.01, 0.1),
        "k_duty": floats(0.2, 1.5),
        "bend_gain": floats(0.5, 3.0),
        "angle_max": st.one_of(st.just(130.0), floats(5.0, 60.0)),
        "finger_stiffness": floats(0.005, 0.1),
    }
)
objects = st.one_of(
    st.none(),
    st.builds(
        ObjectModel,
        position_angle=floats(-10.0, 60.0),
        stiffness=st.one_of(st.just(0.0), floats(0.001, 5.0)),
    ),
)
# below 0 the pressure reaches its floor; 100 is the PWM ceiling
schedules = st.lists(st.one_of(floats(-50.0, 150.0), st.sampled_from([0.0, 100.0])), max_size=120)


def fresh_plant(params: dict, pressure: float) -> FingerPlant:
    plant_obj = FingerPlant(PolynomialModel(0, (0.0,)), **params)
    plant_obj.pressure = pressure
    return plant_obj


def state(plant_obj: FingerPlant) -> list:
    return hexed([plant_obj.pressure, plant_obj.angle, plant_obj.contact_force])


@settings(max_examples=150, deadline=None)
@given(
    params=plant_params,
    obj=objects,
    duties=schedules,
    start=st.one_of(st.just(0.0), floats(0.0, 200.0)),
    dt_share=st.one_of(st.just(0.5), floats(0.05, 0.5)),
)
@example(
    params={"tau_p": 0.05, "k_duty": 1.0, "bend_gain": 2.0, "angle_max": 20.0, "finger_stiffness": 0.03},
    obj=ObjectModel(position_angle=-5.0, stiffness=0.0),
    duties=[100.0] * 5 + [-50.0] * 5 + [0.0],
    start=0.0,
    dt_share=0.5,
)
def test_open_loop_steps_as_finger_plant_step(params, obj, duties, start, dt_share):
    dt = params["tau_p"] * dt_share
    kernel, reference = fresh_plant(params, start), fresh_plant(params, start)
    pressures, angles, forces = harness._open_loop(kernel, duties, dt, obj)
    got = list(zip(pressures.tolist(), angles.tolist(), forces.tolist()))
    assert all(type(v) is float for row in got for v in row)
    expected = []
    for duty in duties:
        reference.step(duty, dt, obj)
        expected.append((reference.pressure, reference.angle, reference.contact_force))
    assert hexed(got) == hexed(expected)
    assert state(kernel) == state(reference)


@pytest.mark.parametrize("dt", [0.0, -0.01, 0.02])
def test_open_loop_refuses_the_plant_s_bad_dt(dt):
    """Every kernel raises ``FingerPlant.step``'s error before any step."""
    params = {"tau_p": 0.03}
    cfg = config_from_dict({"plant": params, "controller": {"period": dt}})
    model, obj = PolynomialModel(0, (0.0,)), ObjectModel(10.0, 0.1)
    kernels = (
        lambda p: p.step(50.0, dt),
        lambda p: harness._open_loop(p, [50.0], dt),
        lambda p: harness._grasp_lanes(cfg, [p], [model], [obj], [1.0], 1, 0),
        lambda p: harness._closed_loop(cfg, p, model, obj, [1.0], 50.0, force_mode=True),
    )
    errors = []
    for step in kernels:
        plant_obj = fresh_plant(params, 0.0)
        with pytest.raises(ValueError) as info:
            step(plant_obj)
        errors.append(str(info.value))
        assert state(plant_obj) == state(fresh_plant(params, 0.0))
    assert errors == errors[:1] * len(kernels)


# ---------------------------------------------------------------------------
# Hardness: the oracle, the ramp on the reference tick loop


def oracle_probe_hardness(cfg, stiffness, seed, models) -> HardnessResult:
    hc = cfg.hardness
    dt = cfg.controller.period
    obj = None if stiffness is None else ObjectModel(position_angle=hc.position_angle, stiffness=stiffness)
    plant_obj = harness._build_plant(cfg, 0, harness.derive_seed(seed, "hardness", stiffness or "free"))
    duty = 0.0
    points = []
    trace = Trace()

    def ramp(i, reading, estimate):
        nonlocal duty
        if estimate.contact > hc.min_contact_force:
            points.append((estimate.contact, reading[0]))
        duty = min(hc.max_duty, duty + hc.ramp_rate * dt)
        return duty

    def record(i, duty, reading, estimate):
        trace_row(trace, plant_obj, i * dt, duty, reading, estimate, "probe")

    simulate(cfg, [Lane(plant_obj, models[0], obj, duty, ramp, record)], int(round(hc.duration_s / dt)))
    touched = any(e >= cfg.supervisor.contact_threshold for e in trace.f_c_est)
    if len(points) < 20 or not touched or len({p[0] for p in points}) == 1:
        return HardnessResult(classification=None, slope_deg_per_n=None, trace=trace)
    mf = sum(p[0] for p in points) / len(points)
    ma = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mf) ** 2 for p in points)
    if sxx == 0.0:  # squares that underflow: no slope to fit
        return HardnessResult(classification=None, slope_deg_per_n=None, trace=trace)
    slope = sum((p[0] - mf) * (p[1] - ma) for p in points) / sxx
    classification = "stiff" if slope < hc.slope_threshold else "soft"
    return HardnessResult(classification=classification, slope_deg_per_n=slope, trace=trace)


def run(probe, *args) -> tuple:
    """(hexed result, raised error as (type, message), sense calls)."""
    with counted_senses() as calls:
        try:
            result = probe(*args)
        except SoftgripError as exc:
            return None, (type(exc), str(exc)), calls[0]
    *numbers, modes = vars(result.trace).values()
    assert all(type(v) is float for column in numbers for v in column)
    assert modes == ["probe"] * len(modes)
    return hexed(result), None, calls[0]


def probe_both(spec: dict, stiffness, model: PolynomialModel, seed: int) -> tuple:
    cfg = config_from_dict(spec)
    assert validate(cfg) == []
    got = run(harness.probe_hardness, cfg, stiffness, seed, [model])
    assert got == run(oracle_probe_hardness, cfg, stiffness, seed, [model])
    return got


QUARTIC = [0.02, 5e-4, 5e-6, 5e-8, 1e-8]
# negative below 10 deg of bend: the internal prediction clamps at 0
DIPPING = [-0.05, -2e-3, 7e-4]


@st.composite
def hardness_specs(draw) -> dict:
    period = draw(st.sampled_from([1.0 / 60.0, 0.01]))
    return {
        "plant": {
            "angle_max": draw(st.one_of(st.just(130.0), floats(20.0, 60.0))),
            "noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.1))),
            "angle_noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.2))),
            "filter_alpha": draw(st.one_of(st.just(1.0), floats(0.3, 1.0))),
            "internal_weights": draw(st.sampled_from([QUARTIC, DIPPING])),
        },
        "controller": {"period": period},
        "supervisor": {"extrapolation_margin": draw(floats(0.0, 0.2))},
        "hardness": {
            "position_angle": draw(floats(-3.0, 60.0)),
            "ramp_rate": draw(st.one_of(st.just(0.0), floats(5.0, 80.0))),
            "max_duty": draw(floats(10.0, 100.0)),
            "duration_s": draw(st.integers(1, 300)) * period,
            "min_contact_force": draw(st.one_of(st.just(0.0), floats(0.0, 0.5))),
            "slope_threshold": draw(floats(1.0, 40.0)),
        },
    }


@st.composite
def fitted_models(draw) -> PolynomialModel:
    """The true quartic, perturbed, over a calibrated range (narrow or wide) or none."""
    weights = tuple(w * draw(floats(0.9, 1.1)) for w in QUARTIC[: draw(st.integers(2, 5))])
    if draw(st.booleans()):
        return PolynomialModel(len(weights) - 1, weights)
    return PolynomialModel(len(weights) - 1, weights, draw(floats(-1.0, 2.0)), draw(floats(5.0, 140.0)))


stiffnesses = st.one_of(st.none(), st.just(0.0), floats(0.01, 2.0))
DEFAULT_MODEL = PolynomialModel(4, tuple(QUARTIC), 0.0, 110.0)
# the default probe of the stiff object, shortened: the finger reaches it and classifies
STIFF = {"hardness": {"duration_s": 6.0}}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=hardness_specs(), stiffness=stiffnesses, model=fitted_models(), seed=st.integers(0, 2**31))
@example(spec=STIFF, stiffness=0.5, model=DEFAULT_MODEL, seed=3)
@example(spec=STIFF, stiffness=0.03, model=DEFAULT_MODEL, seed=3)
@example(spec=STIFF, stiffness=0.0, model=DEFAULT_MODEL, seed=4)
def test_hardness_on_open_loop_matches_the_tick_loop(spec, stiffness, model, seed):
    probe_both(spec, stiffness, model, seed)


def test_the_pinned_probes_classify():
    for stiffness, expected in ((0.5, "stiff"), (0.03, "soft")):
        result, error, senses = probe_both(STIFF, stiffness, DEFAULT_MODEL, 3)
        assert error is None and result[0] == expected
        assert senses == 360


def test_hardness_out_of_range_raises_on_the_tick_and_with_the_message():
    # the ramp bends past a 0-5 deg calibrated range long before its last tick
    narrow = PolynomialModel(4, tuple(QUARTIC), 0.0, 5.0)
    result, (kind, message), senses = probe_both(STIFF, 0.5, narrow, 3)
    assert result is None and kind is OutOfRangeError
    assert message.startswith("angle ") and "outside calibrated range [0.00, 5.00]" in message
    assert 1 < senses < 360
