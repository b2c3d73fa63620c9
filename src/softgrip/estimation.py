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
from .errors import OutOfRangeError
from .plant import SensorReadings

DEFAULT_CONTACT_THRESHOLD = 0.2  # N, above the worst-case free-space estimation error
DEFAULT_HYSTERESIS_RATIO = 0.5
DEFAULT_EXTRAPOLATION_MARGIN = 0.1  # fraction of the calibrated angle span


@dataclass(frozen=True)
class ContactEstimate:
    """Estimated contact force and the internal-force prediction it used."""

    contact: float
    internal: float


def internal_force(
    model: PolynomialModel,
    angle: float,
    margin: float = DEFAULT_EXTRAPOLATION_MARGIN,
) -> float:
    """Predicted free-space (internal) force at ``angle``, clamped below at 0.

    Raises OutOfRangeError when the angle leaves the calibrated range extended
    by ``margin`` x span on each side: polynomials diverge fast outside their
    support, so extrapolated predictions are refused rather than returned.
    """
    if model.angle_min is not None and model.angle_max is not None:
        span = model.angle_max - model.angle_min
        slack = margin * span
        if angle < model.angle_min - slack or angle > model.angle_max + slack:
            raise OutOfRangeError(
                f"angle {angle:.2f} outside calibrated range "
                f"[{model.angle_min:.2f}, {model.angle_max:.2f}] + {margin:.0%} margin"
            )
    return max(0.0, model.predict(angle))


def contact_force(
    reading: SensorReadings,
    model: PolynomialModel,
    margin: float = DEFAULT_EXTRAPOLATION_MARGIN,
) -> ContactEstimate:
    """Contact = measured - predicted internal force (sign preserved)."""
    internal = internal_force(model, reading.angle_meas, margin)
    return ContactEstimate(contact=reading.force_meas - internal, internal=internal)


class ContactDetector:
    """Thresholded contact detection with hysteresis.

    Fires when the estimate reaches ``threshold`` and releases only when it
    falls below ``threshold * hysteresis_ratio``, so noise at the boundary
    cannot chatter.  One detector instance belongs to one control loop.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_CONTACT_THRESHOLD,
        hysteresis_ratio: float = DEFAULT_HYSTERESIS_RATIO,
    ):
        if threshold <= 0.0:
            raise ValueError("threshold must be > 0")
        if not 0.0 <= hysteresis_ratio <= 1.0:
            raise ValueError("hysteresis_ratio must be in [0, 1]")
        self.threshold = threshold
        self.hysteresis_ratio = hysteresis_ratio
        self.in_contact = False

    def update(self, contact: float) -> bool:
        if not math.isfinite(contact):
            raise ValueError("contact estimate must be finite")
        if self.in_contact:
            if contact < self.threshold * self.hysteresis_ratio:
                self.in_contact = False
        elif contact >= self.threshold:
            self.in_contact = True
        return self.in_contact

    def reset(self) -> None:
        self.in_contact = False
