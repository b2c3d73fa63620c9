"""Per-finger internal-force calibration.

A force-sensing resistor glued along a bending finger reads a spurious
"internal" force that grows with the bend angle even in free space.  This
module fits that angle->force relationship with an ordinary-least-squares
polynomial and selects the degree by the Bayesian information criterion
(lower is better), so the fitted model can later be subtracted from live
readings to expose the true contact force.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, RankDeficientError, ZeroVarianceError

# Variance floor keeping the BIC finite on interpolating (zero-residual) fits.
SIGMA2_FLOOR = 1e-12

# Rank test on the column-equilibrated normal matrix.
_COND_LIMIT = 1e12

DEFAULT_MAX_DEGREE = 6


@dataclass(frozen=True)
class Sample:
    """One free-space observation: bend angle (deg) and force reading (N)."""

    angle: float
    force: float


@dataclass(frozen=True)
class PolynomialModel:
    """Fitted internal-force predictor: force = sum_d weights[d] * angle^d.

    ``angle_min``/``angle_max`` record the calibration support when the model
    came from a fit; hand-built models may leave them as None, which disables
    range checking downstream.
    """

    degree: int
    weights: tuple[float, ...]
    angle_min: float | None = None
    angle_max: float | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if len(self.weights) != self.degree + 1:
            raise ValueError("weights length must equal degree + 1")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")

    def predict(self, angle: float) -> float:
        """Evaluate the raw polynomial at ``angle`` (Horner form, no clamping)."""
        acc = 0.0
        for w in reversed(self.weights):
            acc = acc * angle + w
        return acc


@dataclass(frozen=True)
class DegreeRecord:
    """Fit summary for one candidate degree inside a CalibrationReport."""

    degree: int
    weights: tuple[float, ...] | None
    rss: float | None
    sigma2_hat: float | None
    bic: float | None
    r_squared: float | None
    error: str | None = None


@dataclass(frozen=True)
class CalibrationReport:
    """Per-degree fit records plus the BIC-selected model."""

    records: tuple[DegreeRecord, ...]
    selected_degree: int
    n_samples: int
    angle_min: float
    angle_max: float

    def selected(self) -> PolynomialModel:
        rec = next(r for r in self.records if r.degree == self.selected_degree)
        return PolynomialModel(rec.degree, rec.weights, self.angle_min, self.angle_max)


def fit_polynomial(samples: list[Sample], degree: int) -> PolynomialModel:
    """Least-squares polynomial fit of force against angle.

    Solves the normal equations on a column-equilibrated design matrix (raw
    degree-6 Vandermonde columns over degree-scale angles span ~13 orders of
    magnitude) and applies one iterative-refinement step so the residual is
    orthogonal to the column space to near machine precision.
    """
    n = len(samples)
    if n < degree + 1:
        raise InsufficientDataError(
            f"need at least {degree + 1} samples for degree {degree}, got {n}"
        )
    x = np.array([s.angle for s in samples], dtype=float)
    y = np.array([s.force for s in samples], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")

    # the powers of huge angles overflow to inf, and their scaled columns to
    # NaN, which fails the rank test as well
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.vander(x, degree + 1, increasing=True)
        norms = np.linalg.norm(X, axis=0)
        norms[norms == 0.0] = 1.0
        Xs = X / norms
        G = Xs.T @ Xs
        try:
            condition = np.linalg.cond(G)
        except np.linalg.LinAlgError:  # the SVD gives up on NaN
            condition = math.nan
    if not condition <= _COND_LIMIT:
        raise RankDeficientError(
            f"design matrix rank deficient for degree {degree} "
            "(angles carry too few distinct values?)"
        )
    ws = np.linalg.solve(G, Xs.T @ y)
    ws += np.linalg.solve(G, Xs.T @ (y - Xs @ ws))  # one refinement pass
    w = ws / norms
    return PolynomialModel(
        degree=degree,
        weights=tuple(float(v) for v in w),
        angle_min=float(np.min(x)),
        angle_max=float(np.max(x)),
    )


def _horner(columns, x: np.ndarray) -> np.ndarray:
    """``PolynomialModel.predict`` over an array: from 0.0, ``acc * x + w``
    for each weight, highest degree first.  A column is a float, or an array
    of one weight per element of ``x``."""
    acc = np.zeros_like(x)
    for w in columns:
        acc = acc * x + w
    return acc


def _sum_of_squares(values: list) -> float:
    """Python's own ``x ** 2`` of each value, summed in order by builtin
    ``sum``: a finite value whose square overflows raises ``OverflowError``."""
    return float(sum(map(pow, values, repeat(2))))


def _rss(weights: tuple, angles: np.ndarray, forces: np.ndarray) -> float:
    """``sum((predict(angle) - force) ** 2)`` over the samples' arrays, with
    the bits of the per-sample loop: the Horner and the subtraction are the
    same IEEE operations in numpy, and the squares and their sum are Python's."""
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        residual = _horner(reversed(weights), angles) - forces
    return _sum_of_squares(residual.tolist())


def residual_sum_of_squares(model: PolynomialModel, samples: list[Sample]) -> float:
    x = np.array([s.angle for s in samples], dtype=float)
    y = np.array([s.force for s in samples], dtype=float)
    return _rss(model.weights, x, y)


def _sigma2(rss: float, n: int) -> float:
    return max(rss / n, SIGMA2_FLOOR)


def _bic(rss: float, n: int, degree: int) -> float:
    return math.log(n) * (degree + 1) + n * (math.log(2.0 * math.pi * _sigma2(rss, n)) + 1.0)


def _total_sum_of_squares(forces: list) -> float:
    mean = sum(forces) / len(forces)
    return _sum_of_squares([f - mean for f in forces])


def _r_squared(rss: float, tss: float) -> float:
    if tss == 0.0:
        raise ZeroVarianceError("all force values identical; R^2 undefined")
    return 1.0 - rss / tss


def bic_score(model: PolynomialModel, samples: list[Sample]) -> float:
    """BIC = ln(n)*k - 2*ln(Lhat) with a Gaussian residual likelihood.

    k counts the polynomial coefficients (degree + 1); the noise variance is
    not counted, a constant offset that cannot change the argmin.  The MLE
    variance RSS/n is floored at SIGMA2_FLOOR so interpolating fits stay
    finite.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    return _bic(residual_sum_of_squares(model, samples), len(samples), model.degree)


def r_squared(model: PolynomialModel, samples: list[Sample]) -> float:
    """Coefficient of determination 1 - RSS/TSS."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    forces = [s.force for s in samples]
    return _r_squared(residual_sum_of_squares(model, samples), _total_sum_of_squares(forces))


def select_model(samples: list[Sample], max_degree: int = DEFAULT_MAX_DEGREE) -> CalibrationReport:
    """Fit degrees 0..max_degree and select the BIC argmin (ties -> lower degree).

    Degrees whose fit fails are recorded with the error and skipped; only if
    every degree fails is the last error re-raised.  Each degree's scores take
    one residual pass over the samples' arrays, built once, through the
    formulas of ``bic_score`` and ``r_squared``.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    n = len(samples)
    if n <= max_degree + 1:
        raise InsufficientDataError(
            f"need more than {max_degree + 1} samples for max_degree {max_degree}, got {n}"
        )
    records = []
    best: tuple[float, int] | None = None
    last_error: Exception | None = None
    angles = [s.angle for s in samples]
    forces = [s.force for s in samples]
    x, y = np.array(angles, dtype=float), np.array(forces, dtype=float)
    tss = _total_sum_of_squares(forces)
    for degree in range(max_degree + 1):
        try:
            model = fit_polynomial(samples, degree)
        except (RankDeficientError, InsufficientDataError) as exc:
            last_error = exc
            records.append(
                DegreeRecord(degree, None, None, None, None, None, error=str(exc))
            )
            continue
        rss = _rss(model.weights, x, y)
        bic = _bic(rss, n, degree)
        try:
            r2 = _r_squared(rss, tss)
        except ZeroVarianceError:
            r2 = None
        records.append(DegreeRecord(degree, model.weights, rss, _sigma2(rss, n), bic, r2))
        if best is None or bic < best[0]:
            best = (bic, degree)
    if best is None:
        raise last_error if last_error is not None else RankDeficientError("all fits failed")
    return CalibrationReport(
        records=tuple(records),
        selected_degree=best[1],
        n_samples=n,
        angle_min=float(min(angles)),
        angle_max=float(max(angles)),
    )


CSV_HEADER = ("angle_deg", "force_n")
CSV_LINE_END = "\r\n"  # the line end csv.writer writes, which these files have always had


def save_samples(path: str | Path, samples: list[Sample]) -> None:
    """The samples as CSV, each number as its ``repr``, in one streaming pass."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + CSV_LINE_END)
        fh.writelines(map(("%r,%r" + CSV_LINE_END).__mod__, ((s.angle, s.force) for s in samples)))


def save_report(path: str | Path, report: CalibrationReport) -> None:
    """The report as JSON keyed by its dataclass fields, nested records included."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=vars)
        fh.write("\n")
