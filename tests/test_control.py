"""Control module tests.

Covers:
- the per-tick increment equals the positional PI law (hand value with the
  experiment gains, telescoping integral, 1000-sequence closed-form oracle)
- output clamping, conditional anti-windup boundedness, NaN rejection
- reset semantics and bit-identical repeat runs
- supervisor: approach ramp integration, single switch with integral reset
  and duty carry-over, force-control delegation
"""

import math
import random

import pytest

from softgrip.control import Mode, PiController, Supervisor, positional_pi
from softgrip.errors import NonFiniteError
from softgrip.estimation import ContactEstimate


def make_ctrl(**kw):
    defaults = dict(kp=10.0, ki=1.5, period=1.0 / 60.0)
    defaults.update(kw)
    return PiController(**defaults)


def test_zero_error_is_fixed_point():
    ctrl = make_ctrl()
    assert ctrl.step(2.0, 2.0, 40.0) == pytest.approx(40.0, abs=1e-15)
    assert ctrl.integral == 0.0


def test_first_step_increment_hand_value():
    # kp=10, ki=1.5, T=1/60, e=0.5: u = 10*0.5 + 1.5*(1/60)*0.5 = 5.0125
    ctrl = make_ctrl()
    duty = ctrl.step(0.5, 0.0, 40.0)
    assert duty - 40.0 == pytest.approx(5.0125, abs=1e-12)


def test_constant_error_integral_telescopes():
    ctrl = make_ctrl(output_max=1e9)  # keep far from saturation
    n = 25
    for _ in range(n):
        ctrl.step(1.0, 0.0, 0.0)
    assert ctrl.integral == pytest.approx(n * 1.0 * ctrl.period, rel=1e-12)


def test_increment_equals_positional_law_oracle():
    # 1000 random unsaturated error sequences: duty(n) - duty(0) must equal
    # sum_k [kp e_k + ki T S_k] computed independently, within 1e-9
    rng = random.Random(123)
    for _ in range(1000):
        kp = rng.uniform(0.5, 20.0)
        ki = rng.uniform(0.0, 5.0)
        period = rng.choice([1.0 / 60.0, 0.01, 0.1])
        ctrl = PiController(kp=kp, ki=ki, period=period, output_min=-1e9, output_max=1e9)
        errors = [rng.uniform(-1.0, 1.0) for _ in range(rng.randrange(1, 30))]
        duty = 0.0
        for e in errors:
            duty = ctrl.step(e, 0.0, duty)
        running = 0.0
        expected = 0.0
        for e in errors:
            running += e
            expected += kp * e + ki * period * running
        assert abs(duty - expected) <= 1e-9
        # and each single increment is the positional law's u_n
        prefix = []
        ctrl2 = PiController(kp=kp, ki=ki, period=period, output_min=-1e9, output_max=1e9)
        d = 0.0
        for e in errors:
            prefix.append(e)
            new = ctrl2.step(e, 0.0, d)
            assert new - d == pytest.approx(positional_pi(kp, ki, period, prefix), abs=1e-9)
            d = new


def test_output_always_clamped_and_finite():
    rng = random.Random(7)
    ctrl = make_ctrl(output_min=0.0, output_max=100.0)
    duty = 50.0
    for _ in range(2000):
        duty = ctrl.step(rng.uniform(-10, 10), rng.uniform(-10, 10), duty)
        assert 0.0 <= duty <= 100.0
        assert math.isfinite(duty)
        assert math.isfinite(ctrl.integral)


def test_anti_windup_bounds_integral():
    # permanently unreachable target: output saturates, integral must not grow
    ctrl = make_ctrl()
    duty = 0.0
    integrals = []
    for _ in range(5000):
        duty = ctrl.step(10.0, 0.0, duty)  # +10 N error forever
        integrals.append(ctrl.integral)
    assert duty == 100.0
    assert max(integrals) <= 10.0 * ctrl.period * 3  # frozen after a few ticks


def test_anti_windup_still_integrates_toward_desaturation():
    ctrl = make_ctrl()
    duty = 100.0
    ctrl.integral = 5.0
    new = ctrl.step(-1.0, 0.0, duty)  # negative error at the upper rail
    assert new < 100.0
    assert ctrl.integral < 5.0  # unwinding direction is never frozen


def test_non_finite_inputs_rejected():
    ctrl = make_ctrl()
    with pytest.raises(NonFiniteError):
        ctrl.step(float("nan"), 0.0, 50.0)
    with pytest.raises(NonFiniteError):
        ctrl.step(1.0, float("inf"), 50.0)


def test_reset_zeroes_integral_and_repeats_bit_exact():
    ctrl = make_ctrl()
    rng = random.Random(5)
    errors = [rng.uniform(-1, 1) for _ in range(200)]

    def run():
        duty = 30.0
        out = []
        for e in errors:
            duty = ctrl.step(e, 0.0, duty)
            out.append(duty)
        return out

    first = run()
    ctrl.reset()
    assert ctrl.integral == 0.0
    second = run()
    assert first == second  # bit-identical trace after reset
    ctrl.reset()
    assert ctrl.step(0.0, 0.0, 40.0) == 40.0  # zero increment after reset


def test_reset_during_saturation_clears_windup():
    ctrl = make_ctrl()
    duty = 0.0
    for _ in range(100):
        duty = ctrl.step(10.0, 0.0, duty)
    ctrl.reset()
    assert ctrl.integral == 0.0


def test_validation():
    with pytest.raises(ValueError):
        PiController(period=0.0)
    with pytest.raises(ValueError):
        PiController(output_min=10.0, output_max=10.0)


def test_supervisor_approach_ramp():
    # 2 s at 10 %/s with no contact -> duty 20%
    ctrl = make_ctrl()
    sup = Supervisor(target_force=2.5, approach_rate=10.0)
    dt = 1.0 / 60.0
    duty = 0.0
    for _ in range(120):
        duty = sup.step(ctrl, ContactEstimate(contact=0.0, internal=0.1), dt)
    assert duty == pytest.approx(20.0, rel=1e-9)
    assert sup.mode is Mode.APPROACH


def test_supervisor_switches_once_with_reset_and_carryover():
    ctrl = make_ctrl()
    ctrl.integral = 9.9  # stale approach-phase state
    sup = Supervisor(target_force=2.0, approach_rate=10.0)
    dt = 1.0 / 60.0
    duty = 0.0
    for _ in range(60):
        duty = sup.step(ctrl, ContactEstimate(0.0, 0.0), dt)
    duty_before = sup.duty
    duty = sup.step(ctrl, ContactEstimate(0.5, 0.0), dt)  # contact!
    assert sup.mode is Mode.FORCE_CONTROL
    assert sup.switch_time is not None
    # integral was reset at the switch, then one PI tick ran from the
    # carried-over duty: increment = kp*e + ki*T*e exactly
    e = 2.0 - 0.5
    assert duty - duty_before == pytest.approx(10.0 * e + 1.5 * dt * e, abs=1e-12)
    # mode never falls back even if the estimate drops
    sup.step(ctrl, ContactEstimate(-1.0, 0.0), dt)
    assert sup.mode is Mode.FORCE_CONTROL


def test_positional_pi_validation():
    with pytest.raises(ValueError):
        positional_pi(10.0, 1.5, 1.0 / 60.0, [])


def test_no_derivative_path():
    # a PI's output depends on past errors only through their sum: permuting
    # the history changes nothing (a derivative term would react to ordering)
    rng = random.Random(31)
    history = [rng.uniform(-1, 1) for _ in range(20)]
    shuffled = history[:]
    rng.shuffle(shuffled)
    final = 0.7
    for errors in (history, shuffled):
        ctrl = make_ctrl(output_min=-1e9, output_max=1e9)
        duty = 0.0
        for e in errors:
            duty = ctrl.step(e, 0.0, duty)
        before = duty
        after = ctrl.step(final, 0.0, duty)
        if errors is history:
            reference = after - before
        else:
            assert after - before == pytest.approx(reference, abs=1e-12)
