"""Plant module tests.

Covers:
- equilibria and first-order pressure convergence
- the contact compliance split: continuity at onset, stiffness ordering,
  pinned angle against rigid objects
- sensing: superposition with noise off, filter warm-up exactness, the FSR
  zero floor
- determinism (bit-identical traces for equal seeds) and the explicit-Euler
  dt precondition
- shake_test against the Normal-CDF oracle
- closed-loop calibration round trip: ramp data refit recovers the
  ground-truth coefficients within their standard errors
"""

import math
import random

import numpy as np
import pytest

from softgrip.calibration import PolynomialModel, Sample, fit_polynomial
from softgrip.config import default_config
from softgrip.harness import _build_plant
from softgrip.plant import (
    DEFAULT_INTERNAL_WEIGHTS,
    FingerPlant,
    ObjectModel,
    shake_test,
)

DT = 1.0 / 60.0


def truth_model(finger=0):
    """Ground-truth internal-force model, as the harness builds it for ``finger``."""
    return _build_plant(default_config(), finger, 0).internal_model


def make_plant(seed=0, noise=True, **kw):
    params = {}
    if not noise:
        params.update(noise_sigma=0.0, angle_noise_sigma=0.0)
    params.update(kw)
    return FingerPlant(internal_model=truth_model(0), seed=seed, **params)


def test_rest_equilibrium():
    plant = make_plant(noise=False)
    for _ in range(100):
        plant.step(0.0, DT)
    assert plant.pressure == 0.0
    assert plant.angle == 0.0
    assert plant.contact_force == 0.0


def test_pressure_first_order_steady_state():
    plant = make_plant(noise=False)
    duty = 40.0
    for _ in range(int(10 * plant.tau_p / DT)):
        plant.step(duty, DT)
    assert plant.pressure == pytest.approx(plant.k_duty * duty, rel=0.01)


def test_dt_precondition():
    plant = make_plant()
    with pytest.raises(ValueError):
        plant.step(10.0, plant.tau_p)  # > tau_p / 2
    with pytest.raises(ValueError):
        plant.step(10.0, 0.0)
    plant.step(10.0, plant.tau_p / 2.0)  # boundary is allowed


def test_angle_clamped_at_angle_max():
    plant = make_plant(noise=False, angle_max=50.0)
    for _ in range(600):
        plant.step(100.0, DT)
    assert plant.angle == 50.0


def test_contact_force_continuous_at_onset():
    # free angle just past the object position: force starts from ~0
    obj = ObjectModel(position_angle=30.0, stiffness=0.5)
    plant = make_plant(noise=False)
    duty_at_onset = 30.0 / (plant.bend_gain * plant.k_duty)
    for _ in range(600):
        plant.step(duty_at_onset * 1.001, DT, obj)
    assert 0.0 < plant.contact_force < 0.005
    assert plant.angle == pytest.approx(30.0, abs=0.1)


def test_stiffness_ordering():
    # equal duty: stiffer object -> more force, less angle excess
    results = {}
    for stiffness in (0.05, 0.5, 5.0):
        obj = ObjectModel(position_angle=20.0, stiffness=stiffness)
        plant = make_plant(noise=False)
        for _ in range(600):
            plant.step(60.0, DT, obj)
        results[stiffness] = (plant.contact_force, plant.angle - 20.0)
    forces = [results[s][0] for s in (0.05, 0.5, 5.0)]
    excesses = [results[s][1] for s in (0.05, 0.5, 5.0)]
    assert forces == sorted(forces)
    assert excesses == sorted(excesses, reverse=True)


def test_rigid_object_pins_angle_while_force_grows():
    obj = ObjectModel(position_angle=30.0, stiffness=5.0)
    plant = make_plant(noise=False)
    angles, forces = [], []
    for duty in (40.0, 60.0, 80.0):
        for _ in range(600):
            plant.step(duty, DT, obj)
        angles.append(plant.angle)
        forces.append(plant.contact_force)
    assert forces[2] > forces[1] > forces[0]
    assert angles[2] - angles[0] < 1.0  # "bend angle remains almost constant"


def test_compliant_object_lets_both_grow():
    obj = ObjectModel(position_angle=30.0, stiffness=0.028)
    plant = make_plant(noise=False)
    angles, forces = [], []
    for duty in (40.0, 60.0, 80.0):
        for _ in range(600):
            plant.step(duty, DT, obj)
        angles.append(plant.angle)
        forces.append(plant.contact_force)
    assert forces[2] > forces[1] > forces[0]
    assert angles[2] - angles[0] > 10.0


def test_sense_superposition_noise_off():
    model = truth_model(0)
    plant = make_plant(noise=False)
    for _ in range(300):
        plant.step(50.0, DT)
    free_reading = plant.sense()
    assert free_reading.force_meas == pytest.approx(model.predict(plant.angle), abs=1e-12)
    assert free_reading.angle_meas == plant.angle
    # inject a known contact force: reading moves by exactly that much
    plant.contact_force = 2.0
    for _ in range(200):
        contact_reading = plant.sense()
    delta = contact_reading.force_meas - model.predict(plant.angle)
    assert delta == pytest.approx(2.0, abs=1e-9)


def test_sense_filter_warms_up_to_constant_immediately():
    plant = make_plant(noise=False)
    plant.step(30.0, DT)
    first = plant.sense()
    assert first.force_meas == pytest.approx(
        plant.internal_model.predict(plant.angle), abs=1e-12
    )


def test_sense_floors_at_zero():
    # negative-mean internal model: raw reading clips at the FSR floor
    model = PolynomialModel(0, (-1.0,))
    plant = FingerPlant(internal_model=model, noise_sigma=0.0, angle_noise_sigma=0.0, seed=0)
    plant.step(10.0, DT)
    assert plant.sense().force_meas == 0.0


def test_sense_of_a_given_state_matches_the_plant_state():
    # the lockstep batch holds the state and passes it in; the bits agree
    obj = ObjectModel(position_angle=25.0, stiffness=0.3)
    own, fed = make_plant(seed=5), make_plant(seed=5)
    for i in range(300):
        own.step(min(90.0, 0.4 * i), DT, obj)
        force = own.internal_model.predict(own.angle) + own.contact_force
        a, b = own.sense(), fed.sense(own.angle, force)
        assert (a.angle_meas.hex(), a.force_meas.hex()) == (b.angle_meas.hex(), b.force_meas.hex())


def test_sense_requires_step():
    plant = make_plant()
    with pytest.raises(RuntimeError):
        plant.sense()


def test_determinism_bit_identical_traces():
    def run(seed):
        plant = make_plant(seed=seed)
        obj = ObjectModel(position_angle=25.0, stiffness=0.3)
        out = []
        for i in range(500):
            duty = min(90.0, 0.3 * i)
            plant.step(duty, DT, obj)
            r = plant.sense()
            out.append((plant.pressure, plant.angle, plant.contact_force, r.force_meas, r.angle_meas))
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_default_internal_model_per_finger_scales():
    models = [truth_model(f) for f in range(3)]
    base = np.array(DEFAULT_INTERNAL_WEIGHTS)
    for m in models:
        ratio = np.array(m.weights) / base
        assert np.allclose(ratio, ratio[0])  # pure scaling
    assert models[0].weights != models[1].weights != models[2].weights


def test_object_model_validation():
    with pytest.raises(ValueError):
        ObjectModel(position_angle=10.0, stiffness=-1.0)
    with pytest.raises(ValueError):
        ObjectModel(position_angle=10.0, stiffness=1.0, deform_threshold=0.0)


def test_shake_zero_grip_never_holds():
    obj = ObjectModel(position_angle=10.0, stiffness=0.1, hold_requirement=1.0, hold_spread=0.3)
    rng = random.Random(0)
    assert all(not shake_test(0.0, obj, rng) for _ in range(100))


def test_shake_far_tail_always_holds():
    obj = ObjectModel(position_angle=10.0, stiffness=0.1, hold_requirement=1.0, hold_spread=0.3)
    rng = random.Random(0)
    grip = 1.0 + 6.0 * 0.3 + 1.0
    assert all(shake_test(grip, obj, rng) for _ in range(1000))


def test_shake_rate_matches_normal_cdf():
    # empirical hold rate vs Phi((grip - mean)/spread), Monte-Carlo tolerance
    obj = ObjectModel(position_angle=10.0, stiffness=0.1, hold_requirement=1.0, hold_spread=0.3)
    rng = random.Random(99)
    n = 4000
    for grip in (0.55, 0.85, 1.0, 1.15, 1.45):
        held = sum(shake_test(grip, obj, rng) for _ in range(n)) / n
        expected = 0.5 * (1.0 + math.erf((grip - 1.0) / (0.3 * math.sqrt(2.0))))
        assert abs(held - expected) <= 4.0 * math.sqrt(expected * (1 - expected) / n) + 0.005


def test_calibration_roundtrip_recovers_coefficients():
    # free-space ramp data refit by the calibration module: coefficients of
    # the generating quartic are recovered within their fit standard errors
    model = truth_model(0)
    plant = FingerPlant(internal_model=model, seed=5)
    samples = []
    duty_levels = [6.0 * k for k in range(1, 16)]
    for rep in range(30):
        for duty in duty_levels + duty_levels[-2::-1]:
            for _ in range(int(0.3 / DT)):
                plant.step(duty + 0.13 * rep, DT)
                reading = plant.sense()
            samples.append(Sample(reading.angle_meas, reading.force_meas))
    fitted = fit_polynomial(samples, 4)
    # standard errors from the equilibrated normal matrix
    x = np.array([s.angle for s in samples])
    y = np.array([s.force for s in samples])
    X = np.vander(x, 5, increasing=True)
    resid = X @ np.array(fitted.weights) - y
    sigma2 = float(resid @ resid) / (len(samples) - 5)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    for got, true, s in zip(fitted.weights, model.weights, se):
        assert abs(got - true) <= 6.0 * s + 1e-12, (got, true, s)
