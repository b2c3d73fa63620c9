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
bit-exactly.  The sensor noise is drawn from it in blocks (``GaussStream``)
whose values are, bit for bit, those ``rng.gauss`` calls in sense order
would give, wherever the blocks are cut: a caller that knows how many
values its run reads states it, and the blocks then cover that run and no
more.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

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

# Gaussian noise values per GaussStream block when no run is stated (4 kB):
# 256 senses with both noise channels on.
NOISE_BLOCK = 512
# The largest block a stated run draws at once (32 kB).  Each block pays a
# fixed cost, so a value cost 315 ns in a block of 512, 273 ns at 1,536 and
# 253 ns at 4,096 (2-CPU VM, Python 3.11, numpy 2.4; medians of 300 draws),
# and larger blocks would buy little for their memory.
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
    IEEE-exact in numpy; log, cos and sin are the libm calls ``math`` makes,
    since numpy's own differ from libm in the last bit on some inputs.

    A block of n values is the next n / 2 pairs, so the next 2n words,
    wherever the blocks are cut, as long as n is even: an odd n would pair
    one block's last cosine with the next block's uniforms, so ``_draw``
    refuses it.  ``need`` is the count of values the stream's run has still
    to draw, as its caller stated it (the harness, which knows each run's
    senses before the first): each block is then that need, rounded up to
    an even count, at most ``MAX_NOISE_BLOCK``, so a run draws at most one
    value it does not read.  With no stated run, or past it, each block is
    ``NOISE_BLOCK`` values.

    The stream keeps only its current block.  Each reader (a plant) holds
    the block it reads and its own place in it, so plants that share a
    stream, stepping in lockstep on equal seeds, each read every value in
    turn; a reader that asks for a block the stream has already left
    behind gets an error, never another place's values.
    """

    __slots__ = ("rng", "block", "start", "need")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.block = array("d")
        self.start = 0  # stream index of block[0]
        self.need = 0  # values the stated run has still to draw; 0 when none is stated

    def block_at(self, index: int) -> tuple:
        """(block, start) of the block holding stream value ``index``, drawn
        now if ``index`` is the first value past the current block."""
        end = self.start + len(self.block)
        if index == end:
            self._draw(self._next_length())
        elif not self.start <= index < end:
            raise RuntimeError(
                f"noise value {index} read out of order: the current block is {self.start}..{end - 1}"
            )
        return self.block, self.start

    def _next_length(self) -> int:
        """The next block's length: the stated need, rounded up to even and
        capped, or ``NOISE_BLOCK`` once no need is left."""
        need = self.need
        return min(MAX_NOISE_BLOCK, need + (need & 1)) if need > 0 else NOISE_BLOCK

    def _draw(self, n: int) -> None:
        """Move on to the next block, of ``n`` values."""
        if n < 2 or n % 2:
            raise ValueError(f"a noise block holds a positive even count of values, not {n}")
        self.need = max(0, self.need - n)
        m = n // 2
        words = np.frombuffer(self.rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        x2pi = (u[0::2] * (2.0 * math.pi)).tolist()
        g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, m))
        z = np.empty((m, 2))  # each pair's cosine value, then its sine value
        z[:, 0] = np.fromiter(map(math.cos, x2pi), float, m)
        z[:, 1] = np.fromiter(map(math.sin, x2pi), float, m)
        z *= g2rad[:, None]
        self.start += len(self.block)
        self.block = array("d", z.tobytes())


class FingerPlant:
    """One simulated finger, owned and stepped by a single control loop."""

    # Fixed attributes: a ``copy.copy`` of a plant (one per grasp lane) reads
    # them as fast as the plant built by ``__init__``; a copied ``__dict__``
    # would not be.
    __slots__ = (
        "internal_model", "tau_p", "k_duty", "bend_gain", "angle_max", "finger_stiffness",
        "noise_sigma", "angle_noise_sigma", "filter_alpha", "noise",
        "_block", "_start", "_size", "_k", "pressure", "angle", "contact_force", "_filter_state",
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
        # The noise block this plant reads, its index in the stream, its
        # length, and this plant's next value in it: at first, the end of an
        # empty block at the stream's start.
        self._block, self._start, self._size, self._k = array("d"), 0, 0, 0
        self.pressure = 0.0  # kPa
        self.angle = 0.0  # deg
        self.contact_force = 0.0  # N, true force against the object
        self._filter_state: float | None = None

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
        channel with a positive sigma adds the next value of ``noise`` times
        its sigma, force first, as ``rng.gauss(0.0, sigma)`` would.
        """
        values, k = self._block, self._k
        sigma = self.noise_sigma
        if sigma > 0.0:
            if k == self._size:
                values, k = self._next_block()
            # rng.gauss adds 0.0 first, which turns -0.0 into 0.0; the floor
            # below reads either sum as 0.0, so the force skips it
            force += values[k] * sigma
            k += 1
        raw = force if force > 0.0 else 0.0  # max(0.0, force), NaN included, without a call
        state = self._filter_state
        self._filter_state = raw = raw if state is None else state + self.filter_alpha * (raw - state)
        sigma = self.angle_noise_sigma
        if sigma > 0.0:
            if k == self._size:
                values, k = self._next_block()
            angle += 0.0 + values[k] * sigma
            k += 1
        self._k = k
        return angle, raw

    def _next_block(self) -> tuple:
        """Move on to the stream's block after this plant's: (block, 0)."""
        block, self._start = self.noise.block_at(self._start + self._size)
        self._block, self._size = block, len(block)
        return block, 0


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
