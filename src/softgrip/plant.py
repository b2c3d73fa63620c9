"""Deterministic simulated pneumatic finger, sensors, and contactable objects.

Stands in for the hardware: PWM duty drives chamber pressure through a
first-order lag, pressure bends the finger linearly, and contact with an
object splits the free bend between finger and object compliance in series.
The sensors read a true state their caller passes in: the force sensor
reads the bending-induced internal force plus the true contact force, with
Gaussian noise and a first-order digital low-pass (the stand-in for a
pneumatic PWM-ripple filter).

All randomness comes from a per-plant ``random.Random`` seeded at
construction, so identical seed + command sequence reproduces traces
bit-exactly.  The sensor noise is drawn from it in blocks (``GaussStream``,
one ``cmath.rect`` per Box-Muller pair) whose values are, bit for bit,
those ``rng.gauss`` calls in sense order would give, wherever the blocks
are cut; a stated run's blocks cover it and no more, each at most
``MAX_NOISE_BLOCK``, the length of every block past it.  Each plant reads
the stream through its own iterator, which a ``copy.copy`` copies, so
copies read the same values onward, each at its own pace.
"""

from __future__ import annotations

import cmath
import math
import random
from array import array
from dataclasses import dataclass
from itertools import chain, tee

import numpy as np

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

# The largest GaussStream block (32 kB), and each block once no stated need
# is left: a value cost 144-154 ns in a block of 512 and 125-129 ns at 4,096
# (2-CPU VM, Python 3.11, numpy 2.4; best of 7 x 50 draws, two runs).
MAX_NOISE_BLOCK = 4096

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


def contact_split(finger_stiffness: float, obj: ObjectModel) -> tuple:
    """(position, stiffness, share) of ``obj`` against a finger: ``share`` is
    the finger's part of a bend past the position, the finger and the object
    yielding in series."""
    k_f, stiffness = finger_stiffness, obj.stiffness
    return obj.position_angle, stiffness, k_f / (k_f + stiffness) if stiffness > 0.0 else 1.0


class GaussStream:
    """The values ``rng.gauss(0.0, 1.0)`` would return, in order, drawn a
    block at a time.

    ``random.gauss`` takes two ``random()`` doubles, u1 and u2, per
    Box-Muller pair and returns cos(2 pi u1) * sqrt(-2 log(1 - u2)), then
    the sine twin.  A block takes its doubles from one ``getrandbits`` call
    instead: its little-endian 32-bit words are those ``random()`` consumes,
    two per double, in the same order.  The products and square roots are
    IEEE-exact in numpy, and log is libm's, as in ``math`` (numpy's differs
    in the last bit on some inputs).  Each pair is one ``cmath.rect(r, phi)``:
    r * libm's cos(phi), then r * sin(phi), as a complex array's bytes hold
    them, or (r, r * phi), the same bits, at phi == 0
    (``scripts/check_box_muller.py`` checks this bit for bit).

    A block of n values is the next n / 2 pairs, so the next 2n words,
    wherever the blocks are cut, as long as n is even: an odd n would pair
    one block's last cosine with the next block's uniforms, so ``_draw``
    refuses it.  ``need`` is the count of values the stream's run has still
    to draw, as its caller stated it (the harness, which knows each run's
    senses before the first): each block is that need, rounded up to even
    and at most ``MAX_NOISE_BLOCK``, so a run draws at most one value it
    does not read, or ``MAX_NOISE_BLOCK`` once no need is left.

    Iterating the stream gives its values without end, each block drawn
    when the iteration first reaches it, so a need stated before the first
    read sizes every block.  A plant reads it through an ``itertools.tee``,
    whose copies share one buffer: each copy reads every value from where it
    was copied, and the buffer keeps a value until its last reader has it.
    """

    __slots__ = ("rng", "need")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.need = 0  # values the stated run has still to draw; 0 when none is stated

    def __iter__(self):
        return chain.from_iterable(iter(lambda: self._draw(self._next_length()), None))

    def _next_length(self) -> int:
        """The next block's length: the stated need, rounded up to even, at
        most ``MAX_NOISE_BLOCK``, or ``MAX_NOISE_BLOCK`` once none is left."""
        return min(self.need + (self.need & 1), MAX_NOISE_BLOCK) or MAX_NOISE_BLOCK

    def _draw(self, n: int) -> array:
        """The next block, of ``n`` values: one ``cmath.rect`` per pair."""
        if n < 2 or n % 2:
            raise ValueError(f"a noise block holds a positive even count of values, not {n}")
        self.need = max(0, self.need - n)
        m = n // 2
        words = np.frombuffer(self.rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, m))
        x2pi = (u[0::2] * (2.0 * math.pi)).tolist()
        return array("d", np.fromiter(map(cmath.rect, g2rad.tolist(), x2pi), complex, m).tobytes())


class FingerPlant:
    """One simulated finger, owned and stepped by a single control loop."""

    # Fixed attributes: a ``copy.copy`` of a plant (one per grasp lane) reads
    # them as fast as the plant built by ``__init__``; a copied ``__dict__``
    # would not be.  ``noise`` is the plant's stream and ``_values`` its own
    # iterator over it.
    __slots__ = (
        "internal_model", "tau_p", "k_duty", "bend_gain", "angle_max", "finger_stiffness",
        "noise_sigma", "angle_noise_sigma", "filter_alpha", "noise", "_values",
        "pressure", "angle", "contact_force", "_filter_state",
    )

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
        self.noise = GaussStream(random.Random(seed))  # drawn in sense order
        (self._values,) = tee(self.noise, 1)
        self.pressure = 0.0  # kPa
        self.angle = 0.0  # deg
        self.contact_force = 0.0  # N, true force against the object
        self._filter_state: float | None = None

    def __copy__(self) -> FingerPlant:
        """A plant in this one's state that reads the noise values this one
        has yet to read, from a copy of its iterator, at its own pace."""
        twin = object.__new__(type(self))
        for name in FingerPlant.__slots__:
            setattr(twin, name, getattr(self, name))
        twin._values = self._values.__copy__()
        return twin

    def __deepcopy__(self, memo) -> FingerPlant:
        """``copy.copy``'s plant: the model is frozen, and a tee's deep copy is deprecated."""
        return self.__copy__()

    def check_dt(self, dt: float) -> None:
        """Raise ValueError unless ``step`` can integrate a tick of ``dt``."""
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if dt > self.tau_p / 2.0:
            raise ValueError(f"dt {dt} exceeds tau_p/2 = {self.tau_p / 2.0} (explicit integration)")

    def step(self, duty: float, dt: float, obj: ObjectModel | None = None) -> None:
        """Advance the plant one tick under the given duty cycle (%).

        Pressure relaxes toward k_duty*duty with time constant tau_p
        (explicit Euler; dt must not exceed tau_p/2 for stability).  The free
        bend angle follows pressure; if an object is in the way, the excess
        bend splits between finger and object stiffness in series and the
        object's share becomes true contact force.
        """
        self.check_dt(dt)
        self.pressure += (dt / self.tau_p) * (self.k_duty * duty - self.pressure)
        if self.pressure < 0.0:
            self.pressure = 0.0
        theta_free = min(self.bend_gain * self.pressure, self.angle_max)
        if obj is not None and theta_free > obj.position_angle:
            position, stiffness, share = contact_split(self.finger_stiffness, obj)
            angle = position + (theta_free - position) * share
            # with a share near 1, rounding can put the sum an ulp past the free bend
            self.angle = theta_free if angle > theta_free else angle
            self.contact_force = stiffness * (self.angle - position)
        else:
            self.angle = theta_free
            self.contact_force = 0.0

    def sense(self, angle: float, force: float) -> tuple:
        """Read the sensors on the true bend ``angle`` (deg) and the noiseless
        ``force`` = ``internal_model.predict(angle)`` + contact force (N), as
        the caller holds them: the pair (angle_meas, force_meas), Python
        floats given floats.  A plain tuple, since every finger-tick reads one.

        The noise, the floor and the filter are the plant's: raw force =
        max(0, force + noise) -- the FSR cannot read negative -- and the
        filter state initializes on the first sample, so with noise off a
        constant input is reproduced exactly from the first reading.  Each
        channel with a positive sigma adds the plant's next value of
        ``noise`` times its sigma, force first, as ``rng.gauss(0.0, sigma)``
        would.
        """
        sigma = self.noise_sigma
        if sigma > 0.0:
            # rng.gauss adds 0.0 first, which turns -0.0 into 0.0; the floor
            # below reads either sum as 0.0, so the force skips it
            force += next(self._values) * sigma
        raw = force if force > 0.0 else 0.0  # max(0.0, force), NaN included, without a call
        state = self._filter_state
        self._filter_state = raw = raw if state is None else state + self.filter_alpha * (raw - state)
        sigma = self.angle_noise_sigma
        if sigma > 0.0:
            angle += 0.0 + next(self._values) * sigma
        return angle, raw


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
