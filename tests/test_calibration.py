"""Calibration module tests.

Covers:
- exact fits (line, constant) and the noiseless quartic recovery against an
  extended-precision normal-equations oracle
- BIC closed form, the +ln(n) penalty step, and the zero-RSS variance floor
- degree selection: penalty tie-breaking, noisy-quartic selection over seeds,
  permutation invariance, R^2 of the selected model, and per-degree records
  equal to ``bic_score`` / ``r_squared`` of each fit, and one
  ``fit_polynomial`` per degree
- ``residual_sum_of_squares`` over arrays equals the per-sample formula bit
  for bit, inf and NaN residuals included, and raises ``OverflowError``
  where that formula's square overflows
- angles whose powers overflow fail their degree as rank deficient
- OLS invariants: residual orthogonality (column-normalized), nested-RSS
  monotonicity, small-instance oracle equivalence
- the samples CSV and report JSON hold every float bit for bit, and a
  second ``save_report`` writes the same bytes
"""

import csv
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip import calibration
from softgrip.calibration import (
    SIGMA2_FLOOR,
    PolynomialModel,
    Sample,
    bic_score,
    fit_polynomial,
    r_squared,
    residual_sum_of_squares,
    save_report,
    save_samples,
    select_model,
)
from softgrip.errors import InsufficientDataError, RankDeficientError, ZeroVarianceError

import reference

# The quartic used by the noiseless-recovery example.
QUARTIC = (0.05, -0.01, 0.002, -0.0001, 0.000002)


def poly_samples(weights, angles, noise=0.0, rng=None):
    out = []
    for a in angles:
        v = sum(w * a**d for d, w in enumerate(weights))
        if noise and rng is not None:
            v += rng.gauss(0.0, noise)
        out.append(Sample(a, v))
    return out


def longdouble_normal_solve(samples, degree):
    """Independent oracle: normal equations accumulated in extended precision."""
    x = np.array([s.angle for s in samples], dtype=np.longdouble)
    y = np.array([s.force for s in samples], dtype=np.longdouble)
    X = np.vander(x, degree + 1, increasing=True)
    G = X.T @ X
    b = X.T @ y
    return np.linalg.solve(G.astype(float), b.astype(float))


def mpmath_lstsq(samples, degree):
    """Second independent oracle: 50-digit normal-equations solve."""
    with mpmath.workdps(50):
        X = mpmath.matrix(len(samples), degree + 1)
        y = mpmath.matrix(len(samples), 1)
        for i, s in enumerate(samples):
            for d in range(degree + 1):
                X[i, d] = mpmath.mpf(s.angle) ** d
            y[i] = mpmath.mpf(s.force)
        G = X.T * X
        b = X.T * y
        w = mpmath.lu_solve(G, b)
        return [float(w[i]) for i in range(degree + 1)]


def test_exact_line():
    samples = [Sample(x, 2.0 * x) for x in (0.0, 1.0, 2.0, 3.0)]
    model = fit_polynomial(samples, 1)
    assert model.weights == pytest.approx([0.0, 2.0], abs=1e-12)


def test_constant_degree0_is_mean():
    samples = [Sample(a, 0.7) for a in (3.0, 10.0, 55.0)]
    model = fit_polynomial(samples, 0)
    assert model.weights == pytest.approx([0.7], abs=1e-15)


def test_noiseless_quartic_recovery_vs_oracle():
    angles = [180.0 * k / 34 for k in range(35)]
    samples = poly_samples(QUARTIC, angles)
    model = fit_polynomial(samples, 4)
    oracle = longdouble_normal_solve(samples, 4)
    for got, exp, true in zip(model.weights, oracle, QUARTIC):
        assert abs(got - exp) <= 1e-6 * abs(exp)
        assert abs(got - true) <= 1e-6 * abs(true)


def test_model_records_angle_range():
    samples = [Sample(x, x) for x in (5.0, 1.0, 9.0)]
    model = fit_polynomial(samples, 1)
    assert model.angle_min == 1.0 and model.angle_max == 9.0


def test_fit_errors():
    with pytest.raises(InsufficientDataError):
        fit_polynomial([Sample(1.0, 1.0)], 1)
    with pytest.raises(RankDeficientError):
        fit_polynomial([Sample(5.0, 1.0), Sample(5.0, 2.0), Sample(5.0, 3.0)], 1)


def test_bic_hand_value():
    # 10 samples with residuals +/-1 around a zero model: RSS=10, sigma2=1
    samples = [Sample(float(i), 1.0 if i % 2 == 0 else -1.0) for i in range(10)]
    model = PolynomialModel(0, (0.0,))
    assert residual_sum_of_squares(model, samples) == pytest.approx(10.0)
    expected = math.log(10) + 10.0 * (math.log(2.0 * math.pi) + 1.0)
    assert bic_score(model, samples) == pytest.approx(expected, rel=1e-12)


def test_bic_penalty_step_is_ln_n():
    samples = [Sample(float(i), float(i % 3)) for i in range(12)]
    m0 = PolynomialModel(0, (0.3,))
    m1 = PolynomialModel(1, (0.3, 0.0))  # identical predictions, one extra weight
    assert bic_score(m1, samples) - bic_score(m0, samples) == pytest.approx(
        math.log(12), rel=1e-12
    )


def test_bic_zero_rss_uses_floor():
    samples = [Sample(x, 2.0 * x) for x in (0.0, 1.0, 2.0)]
    model = PolynomialModel(1, (0.0, 2.0))
    score = bic_score(model, samples)
    n = 3
    expected = math.log(n) * 2 + n * (math.log(2.0 * math.pi * SIGMA2_FLOOR) + 1.0)
    assert math.isfinite(score)
    assert score == pytest.approx(expected, rel=1e-12)


def test_select_exact_line_prefers_lowest_degree():
    samples = [Sample(float(x), 2.0 * x + 1.0) for x in range(8)]
    report = select_model(samples, max_degree=3)
    assert report.selected_degree == 1
    bics = [r.bic for r in report.records]
    assert bics[1] < bics[2] < bics[3]  # pure ln(n) penalty ordering among exact fits


def test_select_noisy_quartic_35_samples():
    # At exactly 35 points BIC's own overfit probability (P[chi2_1 > ln 35]
    # ~ 6% for degree 5 alone) caps the degree-4 rate near ~90%; assert the
    # oracle-supported floor and that selection always matches an exhaustive
    # scan of the per-degree BIC records.
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        angles = [180.0 * k / 34 for k in range(35)]
        samples = poly_samples(QUARTIC, angles, noise=0.05, rng=rng)
        report = select_model(samples, max_degree=6)
        bics = [(r.bic, r.degree) for r in report.records if r.bic is not None]
        assert report.selected_degree == min(bics)[1]
        if report.selected_degree == 4:
            hits += 1
    assert hits >= 80, f"degree 4 selected only {hits}/100 times"


def test_select_noisy_quartic_35_repetitions():
    # 35 repeated sweeps of an angle grid (the hardware-protocol reading of
    # "35 repetitions"): here BIC picks the generating degree in >=95/100.
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        angles = [180.0 * k / 11 for k in range(12)] * 35
        samples = poly_samples(QUARTIC, angles, noise=0.05, rng=rng)
        report = select_model(samples, max_degree=6)
        if report.selected_degree == 4:
            hits += 1
    assert hits >= 95, f"degree 4 selected only {hits}/100 times"


def test_select_monotone_force_data_high_r2():
    # monotone increasing force with angle, as in the characterization figure
    rng = random.Random(42)
    angles = [120.0 * k / 59 for k in range(60)]
    samples = poly_samples((0.02, 5e-4, 5e-6, 5e-8, 1e-8), angles, noise=0.02, rng=rng)
    report = select_model(samples, max_degree=6)
    selected = next(r for r in report.records if r.degree == report.selected_degree)
    assert selected.r_squared >= 0.95


def test_select_records_equal_the_scores_of_each_fit():
    # select_model takes one residual pass per degree; its records must be
    # the scores bic_score and r_squared give each fitted model, bit for bit
    rng = random.Random(5)
    angles = [120.0 * k / 59 for k in range(60)]
    samples = poly_samples((0.02, 5e-4, 5e-6, 5e-8, 1e-8), angles, noise=0.02, rng=rng)
    report = select_model(samples, max_degree=6)
    for rec in report.records:
        model = PolynomialModel(rec.degree, rec.weights)
        rss = residual_sum_of_squares(model, samples)
        assert rec.rss.hex() == rss.hex()
        assert rec.sigma2_hat.hex() == max(rss / len(samples), SIGMA2_FLOOR).hex()
        assert rec.bic.hex() == bic_score(model, samples).hex()
        assert rec.r_squared.hex() == r_squared(model, samples).hex()


def test_select_fits_each_degree_once(monkeypatch):
    degrees = []
    real = calibration.fit_polynomial

    def fit(samples, degree):
        degrees.append(degree)
        return real(samples, degree)

    monkeypatch.setattr(calibration, "fit_polynomial", fit)
    samples = poly_samples((0.1, 0.02, 3e-4), [2.0 * k for k in range(40)], noise=0.01, rng=random.Random(3))
    select_model(samples, max_degree=6)
    assert degrees == list(range(7))


# ordinary values, and any float at all: huge, tiny, inf and NaN
_ANY = st.one_of(st.floats(-200.0, 200.0), st.floats())
_WEIGHT = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(_WEIGHT, min_size=1, max_size=7),
    points=st.lists(st.tuples(_ANY, _ANY), min_size=1, max_size=40),
)
@example(weights=[0.5, 1.0], points=[(1.0, 2.0), (3.0, float("inf"))])  # an inf residual
@example(weights=[0.5], points=[(float("nan"), 2.0), (1.0, 1.0)])  # a NaN residual
@example(weights=[1.0, 1e300], points=[(float("inf"), 1.0), (2.0, 1.0)])  # 0 * inf in the Horner
@example(weights=[0.0], points=[(1.0, 1.0), (2.0, 1e200)])  # a square that overflows
def test_rss_is_the_per_sample_formula(weights, points):
    model = PolynomialModel(len(weights) - 1, tuple(weights))
    samples = [Sample(a, f) for a, f in points]
    try:
        expected = reference.residual_sum_of_squares(model, samples)
    except OverflowError:
        with pytest.raises(OverflowError):
            residual_sum_of_squares(model, samples)
        return
    assert residual_sum_of_squares(model, samples).hex() == expected.hex()


def test_select_requires_enough_samples():
    samples = [Sample(float(i), float(i)) for i in range(5)]
    with pytest.raises(InsufficientDataError):
        select_model(samples, max_degree=4)


def test_select_records_failed_degrees():
    # identical angles: degree 0 fits, higher degrees are rank deficient
    samples = [Sample(5.0, 1.0 + 0.1 * i) for i in range(6)]
    report = select_model(samples, max_degree=2)
    assert report.selected_degree == 0
    assert report.records[1].error is not None
    assert report.records[2].error is not None


def test_overflowing_powers_are_rank_deficient():
    # angles whose squares overflow: the scaled design matrix holds NaN, on
    # which numpy's SVD fails; the fit reports the degree rank deficient
    samples = [Sample(1e200 * (i - 9.5), 1.0 + 0.01 * i) for i in range(20)]
    with pytest.raises(RankDeficientError):
        fit_polynomial(samples, 2)
    report = select_model(samples, max_degree=3)
    assert report.selected_degree == 0
    assert [r.error is None for r in report.records] == [True, False, False, False]


def test_r_squared_basics():
    samples = [Sample(x, 2.0 * x) for x in (0.0, 1.0, 2.0, 3.0)]
    exact = fit_polynomial(samples, 1)
    assert r_squared(exact, samples) == pytest.approx(1.0, abs=1e-12)
    mean_model = fit_polynomial(samples, 0)
    assert r_squared(mean_model, samples) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroVarianceError):
        r_squared(exact, [Sample(0.0, 1.0), Sample(1.0, 1.0)])


def test_r_squared_noisy_quartic():
    rng = random.Random(3)
    angles = [180.0 * k / 34 for k in range(35)]
    samples = poly_samples(QUARTIC, angles, noise=0.05, rng=rng)
    model = fit_polynomial(samples, 4)
    assert r_squared(model, samples) >= 0.95


def test_residual_orthogonality_invariant():
    # ||X^T r|| <= 1e-8 * (1 + ||y||) per unit-norm column, degrees 0..6
    rng = random.Random(11)
    for trial in range(40):
        degree = rng.randrange(0, 7)
        n = rng.randrange(degree + 2, 40)
        angles = [rng.uniform(0.0, 180.0) for _ in range(n)]
        if len(set(round(a, 6) for a in angles)) < degree + 1:
            continue
        samples = [Sample(a, rng.uniform(0.0, 3.0)) for a in angles]
        model = fit_polynomial(samples, degree)
        x = np.array([s.angle for s in samples])
        y = np.array([s.force for s in samples])
        X = np.vander(x, degree + 1, increasing=True)
        r = X @ np.array(model.weights) - y
        norms = np.linalg.norm(X, axis=0)
        grad = np.abs(X.T @ r) / norms
        bound = 1e-8 * (1.0 + np.linalg.norm(y))
        assert np.all(grad <= bound), f"trial {trial}: gradient {grad.max()} > {bound}"


def test_nested_rss_never_increases():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(10, 30)
        samples = [Sample(rng.uniform(0, 150), rng.uniform(0, 2)) for _ in range(n)]
        rss = [
            residual_sum_of_squares(fit_polynomial(samples, d), samples) for d in range(5)
        ]
        for lo, hi in zip(rss, rss[1:]):
            assert hi <= lo + 1e-9 * (1.0 + lo)


def test_bic_argmin_invariant_under_reordering():
    rng = random.Random(9)
    samples = poly_samples(QUARTIC, [rng.uniform(0, 180) for _ in range(40)], 0.05, rng)
    report = select_model(samples, max_degree=6)
    shuffled = samples[:]
    rng.shuffle(shuffled)
    report2 = select_model(shuffled, max_degree=6)
    assert report.selected_degree == report2.selected_degree


def test_small_instance_oracle_equivalence():
    # degree <= 2, n <= 6: fitted weights match a 50-digit solve to 1e-6 relative
    rng = random.Random(17)
    for _ in range(100):
        degree = rng.randrange(0, 3)
        n = rng.randrange(degree + 1, 7)
        angles = []
        while len(set(angles)) < degree + 1:
            angles = [rng.uniform(0.0, 30.0) for _ in range(n)]
        samples = [Sample(a, rng.uniform(0.0, 5.0)) for a in angles]
        model = fit_polynomial(samples, degree)
        oracle = mpmath_lstsq(samples, degree)
        scale = max(1e-9, max(abs(v) for v in oracle))
        for got, exp in zip(model.weights, oracle):
            assert abs(got - exp) <= 1e-6 * scale


def test_samples_csv_roundtrip(tmp_path):
    samples = [Sample(10.0, 0.25), Sample(0.123456789012345, 1.9999999999999998)]
    path = tmp_path / "s.csv"
    save_samples(path, samples)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["angle_deg", "force_n"]
    # each number's repr parses back to the same float, bit for bit
    assert [[float(v).hex() for v in row] for row in rows] == [
        [s.angle.hex(), s.force.hex()] for s in samples
    ]


def test_report_json_roundtrip_bit_exact(tmp_path):
    rng = random.Random(23)
    samples = poly_samples(QUARTIC, [rng.uniform(0, 180) for _ in range(30)], 0.05, rng)
    report = select_model(samples, max_degree=5)
    path = tmp_path / "report.json"
    save_report(path, report)
    data = json.loads(path.read_text())
    assert data.keys() == vars(report).keys()
    assert data["selected_degree"] == report.selected_degree
    assert data["n_samples"] == report.n_samples
    assert data["angle_min"].hex() == report.angle_min.hex()
    assert data["angle_max"].hex() == report.angle_max.hex()
    # every per-degree record landed in the file, each float bit for bit
    assert [r["degree"] for r in data["records"]] == list(range(6))
    for got, rec in zip(data["records"], report.records):
        assert got.keys() == vars(rec).keys() and got["error"] is None
        assert [w.hex() for w in got["weights"]] == [w.hex() for w in rec.weights]
        for key in ("rss", "sigma2_hat", "bic", "r_squared"):
            assert got[key].hex() == getattr(rec, key).hex()
    # serialization is canonical: a second save produces identical bytes
    path2 = tmp_path / "report2.json"
    save_report(path2, report)
    assert path.read_bytes() == path2.read_bytes()


def test_selected_model_carries_range():
    samples = [Sample(float(x), 0.5 + 0.01 * x) for x in range(10, 50, 2)]
    report = select_model(samples, max_degree=3)
    model = report.selected()
    assert model.angle_min == 10.0
    assert model.angle_max == 48.0
