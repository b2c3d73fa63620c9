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

DEFAULT_KP = 10.0  # duty-% per newton
DEFAULT_KI = 1.5  # duty-% per newton-second
DEFAULT_PERIOD = 1.0 / 60.0  # s (60 Hz control rate)
DEFAULT_APPROACH_RATE = 10.0  # duty-%/s


def positional_pi(kp: float, ki: float, period: float, errors: list[float]) -> float:
    """Closed-form u_n = kp*e_n + ki*T*sum(e_k) for an error sequence.

    Reference evaluation used by the arithmetic oracle tests; the running
    controller applies exactly this quantity as its per-tick duty adjustment.
    """
    if not errors:
        raise ValueError("errors must be nonempty")
    return kp * errors[-1] + ki * period * sum(errors)


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
    output_min: float = 0.0
    output_max: float = 100.0
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

    Ramps the duty open loop until the contact detector fires, then hands
    the loop to the PI controller with the integral zeroed and the current
    duty carried over, so the handover itself introduces no duty bump.  The
    Approach -> ForceControl transition happens exactly once per attempt.
    """

    target_force: float
    approach_rate: float = DEFAULT_APPROACH_RATE
    detector: ContactDetector = field(default_factory=ContactDetector)
    mode: Mode = Mode.APPROACH
    duty: float = 0.0
    switch_time: float | None = None
    _elapsed: float = 0.0

    def step(self, ctrl: PiController, estimate: ContactEstimate, dt: float) -> float:
        """Advance one tick; returns the duty cycle to apply (%)."""
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.mode is Mode.APPROACH:
            if self.detector.update(estimate.contact):
                self.mode = Mode.FORCE_CONTROL
                self.switch_time = self._elapsed
                ctrl.reset()
            else:
                self.duty = min(
                    ctrl.output_max, max(ctrl.output_min, self.duty + self.approach_rate * dt)
                )
        if self.mode is Mode.FORCE_CONTROL:
            self.duty = ctrl.step(self.target_force, estimate.contact, self.duty)
        self._elapsed += dt
        return self.duty
