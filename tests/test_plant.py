"""Plant module tests.

Covers:
- equilibria and first-order pressure convergence
- the contact compliance split: continuity at onset, stiffness ordering,
  pinned angle against rigid objects
- sensing: superposition with noise off, filter warm-up exactness, the FSR
  zero floor, and the block-drawn noise against ``rng.gauss`` bit for bit,
  wherever the blocks are cut and past a stated run, for one reader or a
  plant and its copy in lockstep, at the draw's edges (all-zero and
  all-ones words), and through a deep copy; a block that would split a
  Box-Muller pair is refused
- determinism (bit-identical traces for equal seeds) and the explicit-Euler
  dt precondition
- shake_test against the Normal-CDF oracle
- closed-loop calibration round trip: ramp data refit recovers the
  ground-truth coefficients within their standard errors
"""

import copy
import math
import random
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip.calibration import PolynomialModel, Sample, fit_polynomial
from softgrip.config import default_config
from softgrip.harness import _build_plant
from softgrip.plant import (
    DEFAULT_INTERNAL_WEIGHTS,
    MAX_NOISE_BLOCK,
    FingerPlant,
    GaussStream,
    ObjectModel,
    shake_test,
)

from reference import GaussSensor, sense

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
    angle_meas, force_meas = sense(plant)
    assert force_meas == pytest.approx(model.predict(plant.angle), abs=1e-12)
    assert angle_meas == plant.angle
    # inject a known contact force: reading moves by exactly that much
    plant.contact_force = 2.0
    for _ in range(200):
        _, force_meas = sense(plant)
    delta = force_meas - model.predict(plant.angle)
    assert delta == pytest.approx(2.0, abs=1e-9)


def test_sense_filter_warms_up_to_constant_immediately():
    plant = make_plant(noise=False)
    plant.step(30.0, DT)
    _, first = sense(plant)
    assert first == pytest.approx(
        plant.internal_model.predict(plant.angle), abs=1e-12
    )


def test_sense_floors_at_zero():
    # negative-mean internal model: raw reading clips at the FSR floor
    model = PolynomialModel(0, (-1.0,))
    plant = FingerPlant(internal_model=model, noise_sigma=0.0, angle_noise_sigma=0.0, seed=0)
    plant.step(10.0, DT)
    assert sense(plant)[1] == 0.0


MAX_FLOAT = 1.7976931348623157e308
# 5e-324 noise rounds to -0.0, which rng.gauss turns into 0.0 on a -0.0 angle
sigmas = st.sampled_from([0.0, 5e-324, 0.02, 0.7, 1e300])
# finite and signed inputs, the FSR floor's -0.0, and a force that 1e300 noise overflows
inputs = st.lists(
    st.tuples(
        st.sampled_from([0.0, -0.0, 12.5, 130.0, -3.0]),
        st.sampled_from([0.0, -0.0, 0.4, 2.5, -1.0, MAX_FLOAT, -MAX_FLOAT]),
    ),
    min_size=1,
    max_size=7,
)


class CutStream(GaussStream):
    """A noise stream cut into the given block lengths first, then sized as
    any stream is, by its stated need; ``drawn`` counts the values drawn."""

    __slots__ = ("cuts", "drawn")

    def __init__(self, rng, cuts):
        super().__init__(rng)
        self.cuts, self.drawn = list(cuts), 0

    def _next_length(self):
        return self.cuts.pop(0) if self.cuts else super()._next_length()

    def _draw(self, n):
        block = super()._draw(n)
        self.drawn += len(block)
        return block


# a short block, so a few senses cross several block boundaries
SHORT_BLOCK = 512


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    noise_sigma=sigmas,
    angle_noise_sigma=sigmas,
    given_state=st.booleans(),
    inputs=inputs,
)
@example(seed=1, noise_sigma=1e300, angle_noise_sigma=0.02, given_state=True, inputs=[(12.5, MAX_FLOAT)])
@example(seed=2, noise_sigma=0.0, angle_noise_sigma=0.7, given_state=False, inputs=[(0.0, 0.0)])
def test_block_noise_equals_rng_gauss(seed, noise_sigma, angle_noise_sigma, given_state, inputs):
    # three short blocks' worth of senses and a few more, read from a stream
    # cut into short blocks: one noisy channel or two each cross at least
    # three block boundaries
    with mock.patch("softgrip.plant.GaussStream", partial(CutStream, cuts=[SHORT_BLOCK] * 6)):
        plant = make_plant(seed=seed, noise_sigma=noise_sigma, angle_noise_sigma=angle_noise_sigma)
    ref = GaussSensor(plant, seed)
    obj = ObjectModel(position_angle=25.0, stiffness=0.3)
    forces = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's floating-point warnings raise
        for i in range(3 * SHORT_BLOCK + 5):
            if given_state:
                angle, force = inputs[i % len(inputs)]
                reading = plant.sense(angle, force)
            else:
                plant.step(min(90.0, 0.2 * i), DT, obj)
                angle = plant.angle
                force = plant.internal_model.predict(angle) + plant.contact_force
                reading = sense(plant)
            expected = ref.sense(angle, force)
            assert tuple(map(float.hex, reading)) == expected
            forces.append(expected[1])
    if noise_sigma == 1e300 and given_state and any(f == MAX_FLOAT for _, f in inputs):
        assert "inf" in forces  # the largest float plus positive 1e300 noise


@pytest.mark.parametrize("seed", [0, 1, 2**70 + 3])
def test_gauss_stream_blocks_equal_rng_gauss(seed):
    stream, rng = GaussStream(random.Random(seed)), random.Random(seed)
    values = iter(stream)
    assert stream.rng.getstate() == rng.getstate()  # nothing drawn before the first read
    for _ in range(4):
        assert [next(values).hex() for _ in range(MAX_NOISE_BLOCK)] == [
            rng.gauss(0.0, 1.0).hex() for _ in range(MAX_NOISE_BLOCK)
        ]
        assert stream.rng.getstate() == rng.getstate()  # the same words consumed, a block at a time


# even block lengths up to the largest, short ones often, so a run crosses cuts
cut_lengths = st.one_of(st.integers(1, 8), st.integers(1, MAX_NOISE_BLOCK // 2)).map(lambda half: 2 * half)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    noise_sigma=st.sampled_from([0.0, 0.02]),
    angle_noise_sigma=st.sampled_from([0.0, 0.7]),
    cuts=st.lists(cut_lengths, max_size=6),
    stated=st.integers(0, 700),
    past=st.integers(0, 600),
    readers=st.integers(1, 2),
)
@example(seed=0, noise_sigma=0.02, angle_noise_sigma=0.0, cuts=[], stated=513, past=0, readers=1)
@example(seed=3, noise_sigma=0.0, angle_noise_sigma=0.7, cuts=[2, 2], stated=5, past=600, readers=2)
def test_cut_blocks_read_as_rng_gauss(seed, noise_sigma, angle_noise_sigma, cuts, stated, past, readers):
    # ``stated`` senses are stated to the stream, ``past`` more are read
    # beyond them; two readers share one stream by ``copy.copy``, as the
    # grasp lanes do
    with mock.patch("softgrip.plant.GaussStream", partial(CutStream, cuts=cuts)):
        plant = make_plant(seed=seed, noise_sigma=noise_sigma, angle_noise_sigma=angle_noise_sigma)
    plants = [plant, *(copy.copy(plant) for _ in range(readers - 1))]
    stream = plant.noise
    values = stated * ((noise_sigma > 0.0) + (angle_noise_sigma > 0.0))
    stream.need = values
    ref = GaussSensor(plant, seed)
    for i in range(stated + past):
        angle, force = 12.5 + i % 7, 0.4 + i % 3
        expected = ref.sense(angle, force)
        for plant in plants:
            assert tuple(map(float.hex, plant.sense(angle, force))) == expected
    if not cuts and not past:  # the stated run drew what it read, and a twin if odd
        assert stream.drawn == values + values % 2


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 513, MAX_NOISE_BLOCK + 1])
def test_gauss_stream_refuses_a_block_that_splits_a_pair(n):
    stream = GaussStream(random.Random(0))
    with pytest.raises(ValueError, match="even"):
        stream._draw(n)
    assert stream.rng.getstate() == random.Random(0).getstate()  # no word drawn


class ZeroWords(random.Random):
    """Every word 0: u1 = u2 = 0.0, so phi = 0.0, ``cmath.rect``'s own
    branch, and r = sqrt(-2 log 1.0) = -0.0."""

    def getrandbits(self, k):
        return 0

    def random(self):
        return 0.0


class OnesWords(random.Random):
    """Every word all ones: u1 = u2 = 1 - 2**-53, just below 1, so phi is
    just below 2 pi and r = sqrt(-2 log 2**-53), the largest r, 8.57."""

    def getrandbits(self, k):
        return (1 << k) - 1

    def random(self):
        return (2**53 - 1) / 2**53


@pytest.mark.parametrize("rng_type", [ZeroWords, OnesWords])
def test_gauss_stream_edges_equal_rng_gauss(rng_type):
    # gauss(-0.0, 1.0) returns -0.0 + z, which is z to the sign of a zero,
    # where gauss(0.0, 1.0) would turn -0.0 into 0.0
    values, rng = iter(GaussStream(rng_type())), rng_type()
    assert [next(values).hex() for _ in range(6)] == [rng.gauss(-0.0, 1.0).hex() for _ in range(6)]


def test_a_deep_copy_reads_the_next_values():
    plant = make_plant(seed=7)
    for i in range(3):
        plant.sense(12.5 + i, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # itertools' deprecated pickling would raise
        twin = copy.deepcopy(plant)
    assert twin.internal_model is plant.internal_model
    for i in range(5):
        assert tuple(map(float.hex, twin.sense(9.0 + i, 1.5))) == tuple(map(float.hex, plant.sense(9.0 + i, 1.5)))


def test_determinism_bit_identical_traces():
    def run(seed):
        plant = make_plant(seed=seed)
        obj = ObjectModel(position_angle=25.0, stiffness=0.3)
        out = []
        for i in range(500):
            duty = min(90.0, 0.3 * i)
            plant.step(duty, DT, obj)
            angle_meas, force_meas = sense(plant)
            out.append((plant.pressure, plant.angle, plant.contact_force, force_meas, angle_meas))
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
                reading = sense(plant)
            samples.append(Sample(*reading))
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
