"""The laws of the reference layers, over generated values.

The kernels in ``softgrip.harness`` are held to the reference tick loop bit
for bit; these properties hold the reference classes themselves to the
method's laws:

- each ``PiController`` increment is the positional PI law
  (``positional_pi``), to 1e-9 relative;
- its integral freezes exactly while the output is saturated in the error's
  direction, and advances by error x period otherwise;
- ``FingerPlant.step`` keeps the pressure >= 0 and the angle <= ``angle_max``;
  while the finger presses an object its angle lies between the object's
  position and the free bend, and its contact force is stiffness x (angle -
  position), 0 otherwise;
- the force channel of ``FingerPlant.sense`` is the first-order filter
  s_0 = max(0, f_0), s_n = s_(n-1) + alpha (max(0, f_n) - s_(n-1));
- ``fit_polynomial`` recovers a generated polynomial from exact samples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip.calibration import PolynomialModel, Sample, fit_polynomial
from softgrip.control import PiController
from softgrip.plant import FingerPlant, ObjectModel

from reference import positional_pi


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


gains = st.fixed_dictionaries(
    {
        "kp": st.one_of(st.just(0.0), floats(0.0, 30.0)),
        "ki": st.one_of(st.just(0.0), floats(0.0, 10.0)),
        "period": st.one_of(st.sampled_from([1.0 / 60.0, 0.01]), floats(0.001, 0.1)),
    }
)


# ---------------------------------------------------------------------------
# PI control


@settings(max_examples=200, deadline=None)
@given(
    gains=gains,
    errors=st.lists(floats(-5.0, 5.0), min_size=1, max_size=40),
    duty=floats(-50.0, 50.0),
)
def test_pi_increments_equal_positional_pi(gains, errors, duty):
    ctrl = PiController(**gains, output_min=-1e9, output_max=1e9)  # never saturates
    for n, e in enumerate(errors, 1):
        new = ctrl.step(e, 0.0, duty)
        expected = positional_pi(gains["kp"], gains["ki"], gains["period"], errors[:n])
        assert new - duty == pytest.approx(expected, rel=1e-9, abs=1e-9)
        duty = new


@settings(max_examples=300, deadline=None)
@given(
    gains=gains,
    limits=st.tuples(floats(-20.0, 20.0), floats(30.0, 100.0)),
    duty=floats(-40.0, 140.0),
    integral=floats(-20.0, 20.0),
    target=floats(-5.0, 5.0),
    measured=floats(-5.0, 5.0),
)
def test_integral_freezes_only_while_saturated_in_the_errors_direction(
    gains, limits, duty, integral, target, measured
):
    lo, hi = limits
    ctrl = PiController(**gains, output_min=lo, output_max=hi, integral=integral)
    new = ctrl.step(target, measured, duty)
    error = target - measured
    advanced = integral + error * gains["period"]
    assert lo <= new <= hi
    if ctrl.integral != advanced:
        # frozen: the output sits at the limit the error pushes toward
        assert ctrl.integral == integral
        assert (new == hi and error > 0.0) or (new == lo and error < 0.0)
    # the unclamped output, with a margin for rounding, decides the rest
    raw = duty + gains["kp"] * error + gains["ki"] * advanced
    margin = 1e-9 * (1.0 + abs(raw))
    pushing_up, pushing_down = raw > hi + margin and error > 0.0, raw < lo - margin and error < 0.0
    if pushing_up or pushing_down:
        assert ctrl.integral == integral and new == (hi if pushing_up else lo)
    elif lo + margin < raw < hi - margin or (raw > hi and error <= 0.0) or (raw < lo and error >= 0.0):
        assert ctrl.integral == advanced


# ---------------------------------------------------------------------------
# The plant

plant_params = st.fixed_dictionaries(
    {
        "tau_p": floats(0.01, 0.1),
        "k_duty": floats(0.2, 1.5),
        "bend_gain": floats(0.5, 3.0),
        "angle_max": floats(5.0, 130.0),
        "finger_stiffness": floats(0.005, 0.1),
    }
)
objects = st.one_of(
    st.none(),
    st.builds(
        ObjectModel,
        position_angle=floats(-10.0, 140.0),
        stiffness=st.one_of(st.just(0.0), floats(0.001, 5.0)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    params=plant_params,
    obj=objects,
    duties=st.lists(floats(-100.0, 200.0), min_size=1, max_size=60),
    dt_share=floats(0.05, 0.5),
)
# an object behind the rest angle that yields entirely: unclamped, position +
# (theta - position) rounds an ulp past theta, here the free bend at angle_max
@example(
    params={
        "tau_p": 0.05,
        "k_duty": 1.0,
        "bend_gain": 3.0,
        "angle_max": 6.755212520502369,
        "finger_stiffness": 0.028,
    },
    obj=ObjectModel(position_angle=-7.197327159353138, stiffness=0.0),
    duties=[100.0] * 10,
    dt_share=0.5,
)
def test_plant_step_keeps_its_bounds_and_the_contact_law(params, obj, duties, dt_share):
    plant_obj = FingerPlant(PolynomialModel(0, (0.0,)), **params)
    for duty in duties:
        plant_obj.step(duty, params["tau_p"] * dt_share, obj)
        assert plant_obj.pressure >= 0.0
        assert plant_obj.angle <= params["angle_max"]
        free = min(params["bend_gain"] * plant_obj.pressure, params["angle_max"])
        if obj is not None and free > obj.position_angle:
            assert obj.position_angle <= plant_obj.angle <= free
            assert plant_obj.contact_force == obj.stiffness * (plant_obj.angle - obj.position_angle)
            assert plant_obj.contact_force >= 0.0
        else:
            assert plant_obj.angle == free
            assert plant_obj.contact_force == 0.0


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.one_of(st.just(1.0), floats(0.01, 1.0)),
    readings=st.lists(st.tuples(floats(-10.0, 140.0), floats(-5.0, 20.0)), min_size=1, max_size=50),
)
def test_sensor_filter_follows_its_recurrence(alpha, readings):
    plant_obj = FingerPlant(
        PolynomialModel(0, (0.0,)), noise_sigma=0.0, angle_noise_sigma=0.0, filter_alpha=alpha
    )
    state = None
    for angle, force in readings:
        raw = max(0.0, force)
        state = raw if state is None else state + alpha * (raw - state)
        angle_meas, force_meas = plant_obj.sense(angle, force)
        assert force_meas == state
        assert angle_meas == angle


# ---------------------------------------------------------------------------
# The fit

# Tolerances relative to the largest force (at least 1 N): the fit's largest
# deviation at the sample angles, and its worst coefficient error with each
# coefficient scaled by the largest |angle| to its power.  Measured over 3,000
# such draws: 7.8e-16 and 1.2e-13.
PREDICT_RTOL = 1e-12
COEFFICIENT_RTOL = 1e-10


@settings(max_examples=100, deadline=None)
@given(
    degree=st.integers(0, 4),
    data=st.data(),
    lo=floats(-5.0, 10.0),
    span=floats(20.0, 130.0),
    n=st.integers(10, 80),
)
def test_fit_polynomial_recovers_a_generated_polynomial(degree, data, lo, span, n):
    # each term contributes at most ~1 N over the span
    weights = tuple(data.draw(floats(-1.0, 1.0)) / span**k for k in range(degree + 1))
    truth = PolynomialModel(degree, weights)
    angles = np.linspace(lo, lo + span, n).tolist()
    forces = [truth.predict(a) for a in angles]
    fit = fit_polynomial([Sample(a, f) for a, f in zip(angles, forces)], degree)
    scale = max(1.0, max(map(abs, forces)))
    assert max(abs(fit.predict(a) - f) for a, f in zip(angles, forces)) <= PREDICT_RTOL * scale
    reach = max(abs(lo), abs(lo + span))
    for k, (got, want) in enumerate(zip(fit.weights, weights)):
        assert abs(got - want) * reach**k <= COEFFICIENT_RTOL * scale
