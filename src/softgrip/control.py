"""Discrete PI force control and the approach/force-control supervisor.

The controller evaluates u_n = kp*e_n + ki*T*sum(e_k) each tick and applies
u_n as an adjustment to the current PWM duty cycle (one application per
control tick).  There is no derivative path: force readings are too noisy
for one.  Duty cycles are plain floats in percent, clamped to the
controller's output limits at every step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .estimation import ContactDetector, ContactEstimate
from .errors import NonFiniteError
from .plant import MAX_DUTY

DEFAULT_KP = 10.0  # duty-% per newton
DEFAULT_KI = 1.5  # duty-% per newton-second
DEFAULT_PERIOD = 1.0 / 60.0  # s (60 Hz control rate)
DEFAULT_APPROACH_RATE = 10.0  # duty-%/s
DEFAULT_OUTPUT_MIN = 0.0  # duty-%, the lowest duty the controller commands


@dataclass
class PiController:
    """Incremental PI controller state for one finger.

    ``integral`` holds sum(e_k * T) in newton-seconds; each step evaluates
    the positional law and adds it to the caller's current duty, with
    conditional anti-windup (the integral freezes while the output is
    saturated in the error's direction).
    """

    kp: float = DEFAULT_KP
    ki: float = DEFAULT_KI
    period: float = DEFAULT_PERIOD
    output_min: float = DEFAULT_OUTPUT_MIN
    output_max: float = MAX_DUTY
    integral: float = 0.0

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be > 0")
        if self.output_min >= self.output_max:
            raise ValueError("output_min must be < output_max")

    def step(self, target: float, measured: float, current_duty: float) -> float:
        """Advance one tick; returns the new clamped duty cycle (%)."""
        if not (math.isfinite(target) and math.isfinite(measured) and math.isfinite(current_duty)):
            raise NonFiniteError("controller inputs must be finite")
        error = target - measured
        candidate_integral = self.integral + error * self.period
        u = self.kp * error + self.ki * candidate_integral
        raw = current_duty + u
        duty = min(self.output_max, max(self.output_min, raw))
        winding_up = (raw > self.output_max and error > 0.0) or (
            raw < self.output_min and error < 0.0
        )
        if not winding_up:
            self.integral = candidate_integral
        return duty

    def reset(self) -> None:
        self.integral = 0.0


class Mode(enum.Enum):
    APPROACH = "approach"
    FORCE_CONTROL = "force_control"


@dataclass
class Supervisor:
    """Approach-then-control switching for one grasp attempt.

    Ramps the duty open loop until the contact estimate reaches the
    detector's threshold, then hands the loop to the PI controller with the
    integral zeroed and the current duty carried over, so the handover
    itself introduces no duty bump.  The Approach -> ForceControl transition
    happens exactly once per attempt; the detector is not consulted after it.

    The reference model of the switching law: the experiments run it inlined
    (``harness._closed_loop``, ``harness._grasp_lanes``), and the tests
    hold both to a ``Supervisor`` stepped by ``tests/reference.py``.
    """

    target_force: float
    approach_rate: float = DEFAULT_APPROACH_RATE
    detector: ContactDetector = field(default_factory=ContactDetector)
    mode: Mode = Mode.APPROACH
    duty: float = 0.0

    def step(self, ctrl: PiController, estimate: ContactEstimate, dt: float) -> float:
        """Advance one tick; returns the duty cycle to apply (%)."""
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.mode is Mode.APPROACH:
            if self.detector.update(estimate.contact):
                self.mode = Mode.FORCE_CONTROL
                ctrl.reset()
            else:
                self.duty = min(
                    ctrl.output_max, max(ctrl.output_min, self.duty + self.approach_rate * dt)
                )
        if self.mode is Mode.FORCE_CONTROL:
            self.duty = ctrl.step(self.target_force, estimate.contact, self.duty)
        return self.duty
