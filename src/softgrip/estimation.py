"""Contact-force estimation by internal-force subtraction.

The contact force is the measured force minus the model-predicted internal
force at the same instant's bend angle.  Estimates keep their sign (sensor
noise can push them slightly negative); clamping is the caller's decision so
the force controller sees an unbiased error signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import PolynomialModel
from .errors import NonFiniteError, OutOfRangeError

DEFAULT_CONTACT_THRESHOLD = 0.2  # N, above the worst-case free-space estimation error
DEFAULT_EXTRAPOLATION_MARGIN = 0.1  # fraction of the calibrated angle span


@dataclass(frozen=True)
class ContactEstimate:
    """Estimated contact force and the internal-force prediction it used."""

    contact: float
    internal: float


def calibrated_range(model: PolynomialModel, margin: float) -> tuple:
    """The angles ``internal_force`` accepts for ``model``, as (lo, hi): the
    calibrated range extended by ``margin`` x span on each side, or all
    angles for a model without one."""
    if model.angle_min is None or model.angle_max is None:
        return -math.inf, math.inf
    slack = margin * (model.angle_max - model.angle_min)
    return model.angle_min - slack, model.angle_max + slack


def internal_force(
    model: PolynomialModel,
    angle: float,
    margin: float = DEFAULT_EXTRAPOLATION_MARGIN,
) -> float:
    """Predicted free-space (internal) force at ``angle``, clamped below at 0.

    Raises OutOfRangeError when the angle leaves ``calibrated_range``:
    polynomials diverge fast outside their support, so extrapolated
    predictions are refused rather than returned.
    """
    lo, hi = calibrated_range(model, margin)
    if angle < lo or angle > hi:
        raise OutOfRangeError(
            f"angle {angle:.2f} outside calibrated range "
            f"[{model.angle_min:.2f}, {model.angle_max:.2f}] + {margin:.0%} margin"
        )
    return max(0.0, model.predict(angle))


def contact_force(
    reading: tuple,
    model: PolynomialModel,
    margin: float = DEFAULT_EXTRAPOLATION_MARGIN,
) -> ContactEstimate:
    """Contact = measured - predicted internal force (sign preserved), from
    ``FingerPlant.sense``'s pair (angle_meas, force_meas)."""
    angle_meas, force_meas = reading
    internal = internal_force(model, angle_meas, margin)
    return ContactEstimate(contact=force_meas - internal, internal=internal)


class ContactDetector:
    """Thresholded contact detection: contact is ``estimate >= threshold``.

    It keeps no state: the approach/force-control handover happens once,
    and nothing reads the detector after it fires.
    """

    def __init__(self, threshold: float = DEFAULT_CONTACT_THRESHOLD):
        if threshold <= 0.0:
            raise ValueError("threshold must be > 0")
        self.threshold = threshold

    def update(self, contact: float) -> bool:
        if not math.isfinite(contact):
            raise NonFiniteError("contact estimate must be finite")
        return contact >= self.threshold
