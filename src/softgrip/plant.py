"""Deterministic simulated pneumatic finger, sensors, and contactable objects.

Stands in for the hardware: PWM duty drives chamber pressure through a
first-order lag, pressure bends the finger linearly, and contact with an
object splits the free bend between finger and object compliance in series.
The force sensor reads the bending-induced internal force plus the true
contact force, with Gaussian noise and a first-order digital low-pass
(the stand-in for a pneumatic PWM-ripple filter).

All randomness comes from a per-plant ``random.Random`` seeded at
construction, so identical seed + command sequence reproduces traces
bit-exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .calibration import PolynomialModel

# Defaults sized so the pinned controller gains (kp=10 applied per tick at
# 60 Hz) give a damped closed loop while 3 N stays reachable inside the duty
# range; see config.py for the full default tree.
DEFAULT_TAU_P = 1.0 / 30.0  # s
DEFAULT_K_DUTY = 0.65  # kPa per duty-% (100% duty <-> 65 kPa)
DEFAULT_BEND_GAIN = 1.2 / DEFAULT_K_DUTY  # deg/kPa (1.2 deg per duty-% at DC)
DEFAULT_ANGLE_MAX = 130.0  # deg
DEFAULT_FINGER_STIFFNESS = 0.028  # N/deg
DEFAULT_NOISE_SIGMA = 0.02  # N
DEFAULT_ANGLE_NOISE_SIGMA = 0.05  # deg
DEFAULT_FILTER_ALPHA = 0.95
MAX_DUTY = 100.0  # duty-%, the PWM ceiling

# Ground-truth internal-force quartic (N vs deg), monotone over the working
# range with the quartic term dominant at large angles.
DEFAULT_INTERNAL_WEIGHTS = (0.02, 5e-4, 5e-6, 5e-8, 1e-8)

# Fabrication spread: per-finger scale factors applied to the base weights.
DEFAULT_FINGER_SCALES = (1.0, 0.95, 1.06)


@dataclass(frozen=True)
class ObjectModel:
    """Contactable object: where it sits, how it yields, how it fails.

    ``position_angle`` is the bend angle at which the finger first touches it
    (the analog of the finger-to-object distance d).  Deform/break thresholds
    and the hold requirement are per-trial draws: Normal(mean, spread), the
    hold draw truncated at zero.
    """

    position_angle: float
    stiffness: float
    deform_threshold: float = math.inf
    deform_spread: float = 0.0
    break_threshold: float = math.inf
    break_spread: float = 0.0
    hold_requirement: float = 0.0
    hold_spread: float = 0.0

    def __post_init__(self):
        if self.stiffness < 0.0:
            raise ValueError("stiffness must be >= 0")
        if self.deform_threshold <= 0.0 or self.break_threshold <= 0.0:
            raise ValueError("failure thresholds must be > 0")
        if self.hold_requirement < 0.0:
            raise ValueError("hold_requirement must be >= 0")


@dataclass(slots=True)
class SensorReadings:
    """One tick's sensor outputs: measured angle (deg) and filtered force (N)."""

    angle_meas: float
    force_meas: float


class FingerPlant:
    """One simulated finger, owned and stepped by a single control loop."""

    def __init__(
        self,
        internal_model: PolynomialModel,
        tau_p: float = DEFAULT_TAU_P,
        k_duty: float = DEFAULT_K_DUTY,
        bend_gain: float = DEFAULT_BEND_GAIN,
        angle_max: float = DEFAULT_ANGLE_MAX,
        finger_stiffness: float = DEFAULT_FINGER_STIFFNESS,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        angle_noise_sigma: float = DEFAULT_ANGLE_NOISE_SIGMA,
        filter_alpha: float = DEFAULT_FILTER_ALPHA,
        seed: int = 0,
    ):
        if tau_p <= 0.0:
            raise ValueError("tau_p must be > 0")
        if not 0.0 < filter_alpha <= 1.0:
            raise ValueError("filter_alpha must be in (0, 1]")
        if finger_stiffness <= 0.0:
            raise ValueError("finger_stiffness must be > 0")
        self.internal_model = internal_model
        self.tau_p = tau_p
        self.k_duty = k_duty
        self.bend_gain = bend_gain
        self.angle_max = angle_max
        self.finger_stiffness = finger_stiffness
        self.noise_sigma = noise_sigma
        self.angle_noise_sigma = angle_noise_sigma
        self.filter_alpha = filter_alpha
        self.rng = random.Random(seed)  # the noise stream, drawn in sense order
        self.pressure = 0.0  # kPa
        self.angle = 0.0  # deg
        self.contact_force = 0.0  # N, true force against the object
        self._filter_state: float | None = None
        self._stepped = False

    def step(self, duty: float, dt: float, obj: ObjectModel | None = None) -> None:
        """Advance the plant one tick under the given duty cycle (%).

        Pressure relaxes toward k_duty*duty with time constant tau_p
        (explicit Euler; dt must not exceed tau_p/2 for stability).  The free
        bend angle follows pressure; if an object is in the way, the excess
        bend splits between finger and object stiffness in series and the
        object's share becomes true contact force.
        """
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if dt > self.tau_p / 2.0:
            raise ValueError(f"dt {dt} exceeds tau_p/2 = {self.tau_p / 2.0} (explicit integration)")
        self.pressure += (dt / self.tau_p) * (self.k_duty * duty - self.pressure)
        if self.pressure < 0.0:
            self.pressure = 0.0
        theta_free = min(self.bend_gain * self.pressure, self.angle_max)
        if obj is not None and theta_free > obj.position_angle:
            k_f = self.finger_stiffness
            share = k_f / (k_f + obj.stiffness) if obj.stiffness > 0.0 else 1.0
            self.angle = obj.position_angle + (theta_free - obj.position_angle) * share
            self.contact_force = obj.stiffness * (self.angle - obj.position_angle)
        else:
            self.angle = theta_free
            self.contact_force = 0.0
        self._stepped = True

    def sense(self, angle: float | None = None, force: float | None = None) -> SensorReadings:
        """Read the sensors for the current state.

        raw force = max(0, internal(angle) + contact + noise) -- the FSR
        cannot read negative.  The filter state initializes on the first
        sample, so with noise off a constant input is reproduced exactly
        from the first reading.

        A stepper that holds the mechanical state outside the plant (the
        harness's lockstep batch) passes the true ``angle`` and the
        noiseless ``force`` = internal(angle) + contact instead; the noise
        and the filter are this plant's either way.
        """
        if angle is None:
            if not self._stepped:
                raise RuntimeError("sense() before the first step()")
            angle = self.angle
            force = self.internal_model.predict(angle) + self.contact_force
        if self.noise_sigma > 0.0:
            force += self.rng.gauss(0.0, self.noise_sigma)
        raw = force if force > 0.0 else 0.0  # max(0.0, force), NaN included, without a call
        state = self._filter_state
        self._filter_state = raw if state is None else state + self.filter_alpha * (raw - state)
        if self.angle_noise_sigma > 0.0:
            angle += self.rng.gauss(0.0, self.angle_noise_sigma)
        return SensorReadings(angle, self._filter_state)


def shake_test(total_grip_force: float, obj: ObjectModel, rng: random.Random) -> bool:
    """Did the grasp survive lift-and-shake?

    Samples the trial's hold requirement from Normal(hold_requirement,
    hold_spread) truncated at zero; the object is held iff the total grip
    force meets it.
    """
    if total_grip_force < 0.0:
        raise ValueError("total_grip_force must be >= 0")
    threshold = obj.hold_requirement
    if obj.hold_spread > 0.0:
        threshold = rng.gauss(obj.hold_requirement, obj.hold_spread)
    threshold = max(0.0, threshold)
    return total_grip_force >= threshold
