"""Estimation module tests.

Covers:
- polynomial evaluation (linear case, Horner vs naive power sum), the
  zero clamp, and the extrapolation guard with its margin
- contact = measured - internal, exact additivity in the measured force,
  preserved negative estimates
- contact detection: a stateless threshold over any history of finite
  estimates, and free-space behavior on plant traces (no false positives; mean
  estimate consistent with the noise level)
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softgrip.calibration import PolynomialModel, Sample, fit_polynomial
from softgrip.config import default_config
from softgrip.errors import NonFiniteError, OutOfRangeError
from softgrip.estimation import (
    ContactDetector,
    contact_force,
    internal_force,
)
from softgrip.harness import _build_plant
from softgrip.plant import FingerPlant

from reference import sense


def truth_model(finger=0):
    """Ground-truth internal-force model, as the harness builds it for ``finger``."""
    return _build_plant(default_config(), finger, 0).internal_model


QUARTIC = (0.05, -0.01, 0.002, -0.0001, 0.000002)


def test_linear_model_evaluation():
    model = PolynomialModel(1, (0.0, 2.0))
    assert internal_force(model, 3.0) == pytest.approx(6.0, abs=1e-15)


def test_internal_force_clamped_at_zero():
    model = PolynomialModel(1, (-1.0, 0.01))  # negative until 100 deg
    assert internal_force(model, 10.0) == 0.0
    assert model.predict(10.0) == pytest.approx(-0.9)


def test_horner_matches_power_sum():
    model = PolynomialModel(4, QUARTIC)
    for angle in (0.0, 17.3, 90.0, 179.0):
        naive = sum(w * angle**d for d, w in enumerate(QUARTIC))
        assert model.predict(angle) == pytest.approx(naive, abs=1e-12)


def test_fit_prediction_matches_at_sample_points():
    rng = random.Random(1)
    samples = [Sample(rng.uniform(0, 120), rng.uniform(0, 2)) for _ in range(25)]
    model = fit_polynomial(samples, 3)
    rss = sum((model.predict(s.angle) - s.force) ** 2 for s in samples)
    for s in samples:
        assert abs(model.predict(s.angle) - s.force) <= math.sqrt(rss) + 1e-9


def test_out_of_range_guard():
    model = PolynomialModel(2, (0.0, 0.0, 1e-4), angle_min=10.0, angle_max=110.0)
    internal_force(model, 119.9)  # inside the 10% margin (span 100 -> slack 10)
    internal_force(model, 0.1)
    with pytest.raises(OutOfRangeError):
        internal_force(model, 120.1)
    with pytest.raises(OutOfRangeError):
        internal_force(model, -0.1)
    # widening the margin admits the same angle
    assert internal_force(model, 130.0, margin=0.2) >= 0.0


def test_unranged_model_never_range_errors():
    model = PolynomialModel(1, (0.0, 0.01))
    assert internal_force(model, 1e4) == pytest.approx(100.0)


def test_contact_force_subtraction_and_audit_field():
    model = PolynomialModel(1, (0.0, 0.01))
    est = contact_force((50.0, 1.5), model)
    assert est.internal == pytest.approx(0.5)
    assert est.contact == pytest.approx(1.0)


def test_contact_force_zero_in_free_space():
    model = PolynomialModel(1, (0.0, 0.01))
    est = contact_force((50.0, 0.5), model)
    assert est.contact == pytest.approx(0.0, abs=1e-15)


def test_negative_estimates_preserved():
    model = PolynomialModel(0, (1.0,))
    est = contact_force((0.0, 0.2), model)
    assert est.contact == pytest.approx(-0.8)


def test_linearity_in_measured_force():
    model = PolynomialModel(4, QUARTIC, angle_min=0.0, angle_max=180.0)
    rng = random.Random(2)
    for _ in range(50):
        angle = rng.uniform(0, 180)
        base = rng.uniform(0, 5)
        delta = rng.uniform(-2, 2)
        a = contact_force((angle, base), model).contact
        b = contact_force((angle, base + delta), model).contact
        assert b - a == pytest.approx(delta, abs=1e-12)


def test_detector_threshold_and_hysteresis():
    # no hysteresis: once contact drops below the threshold, it is released
    det = ContactDetector(threshold=0.2)
    assert det.update(0.0) is False
    assert det.update(0.19) is False
    assert det.update(0.2) is True
    assert det.update(0.25) is True
    assert det.update(0.15) is False
    assert det.update(0.09) is False
    assert det.update(0.19) is False
    assert det.update(0.21) is True


def test_detector_monotone_without_history():
    # higher contact never turns True into False
    for threshold in (0.1, 0.2, 0.5):
        values = [0.01 * k for k in range(100)]
        states = []
        for v in values:
            det = ContactDetector(threshold=threshold)
            states.append(det.update(v))
        assert states == sorted(states)


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    contacts=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_detector_is_the_threshold_whatever_came_before(threshold, contacts, bad):
    det = ContactDetector(threshold=threshold)
    for x in contacts:
        assert det.update(x) is (x >= threshold)
    with pytest.raises(NonFiniteError):
        det.update(bad)


def test_detector_validation():
    with pytest.raises(ValueError):
        ContactDetector(threshold=0.0)
    det = ContactDetector()
    with pytest.raises(NonFiniteError, match="^contact estimate must be finite$") as info:
        det.update(float("nan"))
    assert isinstance(info.value, ValueError)  # as the detector raised before it joined the family


def _free_space_run(seed: int, duration_s: float = 10.0):
    """Drive the default plant free-space, return the estimate series."""
    dt = 1.0 / 60.0
    model = truth_model(0)
    plant = FingerPlant(internal_model=model, seed=seed)
    duty = 0.0
    estimates = []
    for i in range(int(duration_s / dt)):
        # full actuation cycle: ramp up, hold, ramp down
        t = i * dt
        if t < 4.0:
            duty = min(80.0, duty + 20.0 * dt)
        elif t > 6.0:
            duty = max(0.0, duty - 20.0 * dt)
        plant.step(duty, dt)
        angle_meas, force_meas = sense(plant)
        estimates.append(force_meas - max(0.0, model.predict(angle_meas)))
    return estimates


def test_free_space_no_false_positives_over_seeds():
    # internal-force artifact only: the detector must stay quiet for 10 s
    for seed in range(20):
        det = ContactDetector(threshold=0.2)
        for est in _free_space_run(seed):
            assert det.update(est) is False, f"false positive with seed {seed}"


def test_free_space_mean_within_noise_standard_error():
    plant = FingerPlant(internal_model=truth_model(0), seed=3)
    for seed in range(10):
        estimates = _free_space_run(seed)
        n = len(estimates)
        sigma_f = plant.noise_sigma * math.sqrt(
            plant.filter_alpha / (2.0 - plant.filter_alpha)
        )
        mean = sum(estimates) / n
        # correlated samples: bound with the raw (unaveraged) standard error
        assert abs(mean) <= 3.0 * sigma_f / math.sqrt(n / 10.0)
