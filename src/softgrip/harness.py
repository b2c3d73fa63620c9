"""Scripted experiments on the simulated plant.

Each experiment builds its plants/controllers from a Config, steps them at the
controller period, and returns traces plus derived metrics.  Every run is
reproducible bit-exactly from (config, seed): all randomness flows through
seeds derived from the master seed and stable trial labels, so parallel and
serial execution produce identical results.

Three tick kernels step the experiments, and give the same bits:

- ``_open_loop`` steps one finger through a duty schedule fixed in advance:
  the pressure recurrence in floats, the bend and the contact in numpy.  Its
  callers then read the sensors one ``FingerPlant.sense`` per tick, in tick
  order.  The calibration ramp (3 fingers of 12,390 ticks at the default
  config) and the hardness probe (2 runs of 480) use it.
- ``_closed_loop`` steps one finger under the supervisor and its PI
  controller in plain floats, one tick per loop pass, with its state in
  locals and its trace in column lists.  The step response (5 runs of 7,200
  ticks) and the switching experiment (10 runs of 900) use it.
- ``simulate_lanes`` steps lanes in lockstep as numpy arrays (``Lanes``),
  in batches of at most ``BATCH_LANES``.  The grasp sweep (540 lanes of 600
  ticks) and the estimation sweep (100 lanes that end early) use it.

``_open_loop`` and ``Lanes.step`` share one bend law (``_bend``).  The
kernels inline only per-tick arithmetic: the contact split, the step-size
limit and the calibrated range come from ``plant`` and ``estimation``.  On
every kernel each finger reads its sensors through its own
``FingerPlant.sense``, which adds the finger's noise; the grasp lanes that
share a plant seed read one noise stream.

``tests/reference.py`` holds the reference model every kernel is checked
against: ``simulate``, a tick loop that steps a few fingers one Python call
at a time (``FingerPlant.step``, ``FingerPlant.sense``, ``contact_force``,
and a policy closure that can drive a real ``Supervisor`` and
``PiController``).  Each kernel wins over it where it is used.  On a 2-CPU
VM (Python 3.11, numpy 2.4; medians of 5 in-process runs) the default grasp
sweep took 0.17 s batched against 0.76 s on the reference, and the
estimation sweep 0.066 s against 0.13 s: a run of one or two lanes would
not gain, as per-tick numpy calls cost more than a few lanes' Python calls.
The step response took 0.15 s on ``_closed_loop`` against 0.41 s on the
reference, and the switching experiment 0.040 s against 0.108 s (medians
over 5 alternating rounds of the minimum of 5 runs).  Most of the time left
on every kernel is the ``FingerPlant.sense`` calls, though their noise comes
in blocks (``plant.GaussStream``).  ``tests/test_open_loop.py``,
``tests/test_open_loop_calibration.py``, ``tests/test_closed_loop.py`` and
``tests/test_batch.py`` check the kernels against the reference.
``BENCH_6.json``, ``BENCH_8.json``, ``BENCH_9.json`` and ``BENCH_10.json``
hold the benchmark's before/after records.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from array import array
from itertools import accumulate, compress, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import calibration as calib
from .calibration import CSV_LINE_END, PolynomialModel, Sample
from .config import Config
from .control import Mode, PiController
from .errors import OutOfRangeError, SoftgripError
from .estimation import ContactDetector, calibrated_range, contact_force, internal_force
from .plant import MAX_DUTY, NOISE_BLOCK, FingerPlant, ObjectModel, contact_split, shake_test
from .seeding import derive_seed

TRACE_HEADER = ("t", "duty", "pressure_kpa", "angle_deg", "f_m", "f_i_pred", "f_c_est", "f_c_true", "mode")
_TRACE_ROW = "%r," * (len(TRACE_HEADER) - 1) + "%s" + CSV_LINE_END
SETTLING_BAND = 0.05  # StepMetrics' settling band, a fraction of the target


@dataclass
class Trace:
    """Uniformly sampled run record; one row per control tick."""

    t: list = field(default_factory=list)
    duty: list = field(default_factory=list)
    pressure: list = field(default_factory=list)
    angle: list = field(default_factory=list)
    f_m: list = field(default_factory=list)
    f_i_pred: list = field(default_factory=list)
    f_c_est: list = field(default_factory=list)
    f_c_true: list = field(default_factory=list)
    mode: list = field(default_factory=list)

    def append(self, t, duty, pressure, angle, f_m, f_i_pred, f_c_est, f_c_true, mode):
        self.t.append(t)
        self.duty.append(duty)
        self.pressure.append(pressure)
        self.angle.append(angle)
        self.f_m.append(f_m)
        self.f_i_pred.append(f_i_pred)
        self.f_c_est.append(f_c_est)
        self.f_c_true.append(f_c_true)
        self.mode.append(mode)

    def __len__(self):
        return len(self.t)

    def to_csv(self, path: str | Path) -> None:
        """The trace as CSV: the header, then one row per tick in one streaming pass.

        The numbers are written as ``repr``.  ``%s`` is safe for the mode:
        the modes are fixed identifiers with no comma, quote or newline, so
        ``csv.writer`` never quoted them either, and the bytes are its own.
        """
        *numbers, modes = vars(self).values()  # the columns in TRACE_HEADER order
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_HEADER) + CSV_LINE_END)
            fh.writelines(map(_TRACE_ROW.__mod__, zip(*numbers, modes)))


@dataclass(frozen=True)
class StepMetrics:
    """Step/switch response quality for one target segment.

    Settling and overshoot are measured on the true contact force: settling
    is the first entry into the +/-5% band that holds to the segment end,
    overshoot the peak over the transient (from the step instant up to
    settling) as a fraction of the target.  The RMS error is computed on the
    estimated force (what the controller and the operator see) after
    settling.  ``settled`` is False when the band is never held; overshoot
    then covers the whole segment and the RMS is reported over it.
    """

    target: float
    settled: bool
    settling_time: float | None
    overshoot: float
    rms_error_post_settle: float


@dataclass(frozen=True)
class GraspOutcome:
    dropped: bool
    deformed: bool
    broken: bool


def _overshoot(values: list, target: float, from_below: bool) -> float:
    """Excursion past the target in the direction of travel, as a fraction."""
    if from_below:
        return max(0.0, max(values) - target) / target
    return max(0.0, target - min(values)) / target


def _rms(deviations: list) -> float:
    """Root mean square of ``deviations``.  Where the squares of finite
    deviations overflow a float, the same quantity scaled by the largest
    magnitude; every other input takes the plain sum."""
    n = len(deviations)
    try:
        mean_square = sum(d ** 2 for d in deviations) / n
    except OverflowError:
        mean_square = math.inf
    if mean_square == math.inf and all(map(math.isfinite, deviations)):
        m = max(map(abs, deviations))
        return m * math.sqrt(sum((d / m) ** 2 for d in deviations) / n)
    return math.sqrt(mean_square)


def compute_step_metrics(trace: Trace, target: float, t_start: float, t_end: float) -> StepMetrics:
    """Derive StepMetrics from a trace segment; recomputable from the CSV.

    The segment is the rows with ``t_start <= t < t_end``.  Every trace keeps
    ``t`` in tick order, so they are one slice, found by bisection.
    """
    rows = _segment(trace.t, t_start, t_end)
    true, est = trace.f_c_true[rows], trace.f_c_est[rows]
    if not true:
        raise ValueError("empty segment")
    lo, hi = target * (1.0 - SETTLING_BAND), target * (1.0 + SETTLING_BAND)
    from_below = true[0] <= target
    settle_at = None  # the first row of the in-band stretch that reaches the segment end
    for k, force in enumerate(true):
        if lo <= force <= hi:
            if settle_at is None:
                settle_at = k
        else:
            settle_at = None
    if settle_at is None:
        rms = _rms([e - target for e in est])
        return StepMetrics(target, False, None, _overshoot(true, target, from_below), rms)
    settling_time = trace.t[rows.start + settle_at] - t_start
    rms = _rms([e - target for e in est[settle_at:]])
    overshoot = _overshoot(true[: settle_at + 1], target, from_below)
    return StepMetrics(target, True, settling_time, overshoot, rms)


def _segment(t: list, t_start: float, t_end: float) -> slice:
    """The rows of a tick-ordered ``t`` with ``t_start <= t < t_end``; the
    bounds are numbers, not NaN."""
    start = bisect_left(t, t_start)
    return slice(start, bisect_left(t, t_end, start))


def _build_plant(cfg: Config, finger: int, seed: int) -> FingerPlant:
    pc = cfg.plant
    scale = pc.finger_scales[finger % len(pc.finger_scales)]
    weights = tuple(float(w) * scale for w in pc.internal_weights)
    model = PolynomialModel(degree=len(weights) - 1, weights=weights)
    return FingerPlant(
        internal_model=model,
        tau_p=pc.tau_p,
        k_duty=pc.k_duty,
        bend_gain=pc.bend_gain,
        angle_max=pc.angle_max,
        finger_stiffness=pc.finger_stiffness,
        noise_sigma=pc.noise_sigma,
        angle_noise_sigma=pc.angle_noise_sigma,
        filter_alpha=pc.filter_alpha,
        seed=seed,
    )


def _build_controller(cfg: Config) -> PiController:
    return PiController(**vars(cfg.controller))


# ---------------------------------------------------------------------------
# The plant's bend law, and the open-loop kernel


def _bend(pressure: np.ndarray, bend_gain: float, angle_max: float, contact: tuple | None) -> tuple:
    """``FingerPlant.step``'s bend and contact over an array of pressures:
    (angle, true contact force).  ``contact`` is ``contact_split``'s triple,
    of floats or of one array each over the pressures, or None in free space.
    Python's ``min(a, b)`` is ``np.where(b < a, b, a)``, so every value is
    the plant's bit for bit."""
    theta = bend_gain * pressure
    theta = np.where(angle_max < theta, angle_max, theta)
    if contact is None:
        return theta, np.zeros_like(theta)
    position, stiffness, share = contact
    touch = theta > position
    angle = np.where(touch, position + (theta - position) * share, theta)
    angle = np.where(angle > theta, theta, angle)
    return angle, np.where(touch, stiffness * (angle - position), 0.0)


def _open_loop(plant_obj: FingerPlant, duties: list, dt: float, obj: ObjectModel | None = None) -> tuple:
    """``FingerPlant.step(duty, dt, obj)`` for each duty of a schedule fixed in
    advance: (pressures, angles, contact forces) after each step, as float64
    arrays.

    The pressure recurrence runs in floats, the bend and the contact in
    numpy (``_bend``), and the plant is left in its last step's state.  A
    ``dt`` the plant refuses raises its error before any step.
    """
    plant_obj.check_dt(dt)
    rate, k_duty = dt / plant_obj.tau_p, plant_obj.k_duty
    pressure = plant_obj.pressure
    pressures = array("d")
    for duty in duties:
        pressure += rate * (k_duty * duty - pressure)
        if pressure < 0.0:
            pressure = 0.0
        pressures.append(pressure)
    pressures = np.array(pressures)
    contact = None if obj is None else contact_split(plant_obj.finger_stiffness, obj)
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        angles, forces = _bend(pressures, plant_obj.bend_gain, plant_obj.angle_max, contact)
    if duties:
        plant_obj.pressure, plant_obj.angle, plant_obj.contact_force = (
            float(pressures[-1]), float(angles[-1]), float(forces[-1])
        )
        plant_obj._stepped = True
    return pressures, angles, forces


def _senses(plant_obj: FingerPlant, angles: np.ndarray, contact: np.ndarray):
    """``FingerPlant.sense`` of each state (true angle, contact force), one
    call per state, in order, as the returned iterator is read.  The states
    become Python floats a block at a time, so a long run holds few."""
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        forces = _horner(_weight_columns([plant_obj.internal_model]), angles) + contact
    for k in range(0, len(angles), NOISE_BLOCK):
        block = slice(k, k + NOISE_BLOCK)
        yield from map(plant_obj.sense, angles[block].tolist(), forces[block].tolist())


# ---------------------------------------------------------------------------
# The batched tick kernel

# Lanes per batch.  Wider batches spread each numpy call over more lanes, but
# every lane keeps its FingerPlant (sensor filter, and a noise stream of
# about 7 kB unless it shares one) until its batch ends, so the sweeps run in
# batches of at most this many and memory stays flat as they grow.  The
# default grasp sweep (540 lanes) took 0.45, 0.27, 0.20, 0.18 and 0.15 s in
# batches of 45, 90, 180, 270 and 540 lanes (2-CPU VM, Python 3.11, numpy 2.4).
BATCH_LANES = 270


def _raised(check: Callable, *args) -> Exception:
    """The error the scalar ``check(*args)`` raises for a lane the batch found
    failing, so each error message keeps one source."""
    try:
        check(*args)
    except (SoftgripError, ValueError) as exc:
        return exc
    raise RuntimeError(f"the batch and {check.__qualname__} disagree on {args}")


def _weight_columns(models: list) -> list:
    """Horner columns, highest degree first, over one model per lane.

    Lower-degree models get leading zero weights: 0.0 * x + 0.0 is +0.0 for
    any finite x, which is where the scalar Horner loop starts.
    """
    top = max(m.degree for m in models)
    rows = [(0.0,) * (top - m.degree) + tuple(reversed(m.weights)) for m in models]
    return list(np.array(rows, dtype=float).T.copy())


def _horner(columns: list, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for w in columns:
        acc = acc * x + w
    return acc


class Lanes:
    """Fingers stepped in lockstep by ``simulate_lanes``: each lane's plant,
    estimator and controller state as float64/bool arrays over lanes.

    Built from the FingerPlants ``_build_plant`` returns, which share
    ``cfg.plant``'s parameters and bring their own internal model, noise
    stream and sensor filter, plus each lane's fitted model and object.  The
    lanes hold the mechanical state and each plant reads its own sensors
    from it, so every lane-tick is one ``FingerPlant.sense`` call, as on the
    reference tick loop.  Every other operation repeats the scalar one in
    the same order (Python's ``max(a, b)`` is ``np.where(b > a, b, a)``), so
    a lane reproduces its reference run bit for bit.  ``group`` numbers the
    lanes that fail together, such as a grasp trial's fingers.
    """

    def __init__(self, cfg: Config, plants: list, models: list, objs: list, group=None):
        self.plants = plants  # each lane's noise stream and sensor filter
        self.models = models
        self.n = len(plants)
        p = plants[0]  # the parameters every lane shares
        self.group = np.arange(self.n) if group is None else np.asarray(group)
        self.tau_p, self.k_duty, self.bend_gain = p.tau_p, p.k_duty, p.bend_gain
        self.angle_max = p.angle_max
        self.true_columns = _weight_columns([plant.internal_model for plant in plants])
        self.fit_columns = _weight_columns(models)
        self.margin = cfg.supervisor.extrapolation_margin
        self.lo, self.hi = np.array([calibrated_range(m, self.margin) for m in models]).T
        # (position, stiffness, share), one array each over the lanes
        contacts = [contact_split(p.finger_stiffness, o) for o in objs]
        self.contact = tuple(np.array(column, dtype=float) for column in zip(*contacts))
        # one array each, so an in-place write to one leaves the others alone
        self.pressure, self.angle, self.contact_force = (np.zeros(self.n) for _ in range(3))
        self.force_meas, self.angle_meas = np.zeros(self.n), np.zeros(self.n)
        self.duty, self.integral = np.zeros(self.n), np.zeros(self.n)
        self.force_mode = np.zeros(self.n, dtype=bool)
        self.alive = np.ones(self.n, dtype=bool)
        self.errors = {}  # lane -> its first error

    def fail(self, mask: np.ndarray, error: Callable) -> None:
        """End the lanes in ``mask``, recording ``error(lane)`` for each."""
        for k in np.flatnonzero(mask):
            self.errors[k] = error(k)
        self.alive &= ~mask

    def group_errors(self) -> dict:
        """Each failed group's error: that of its first failing lane.

        A group ends with the tick its first lane fails, so its errors come
        from one tick, and the first lane's is the one the scalar loop,
        visiting the lanes in order, would have raised.
        """
        first = {}
        for k in sorted(self.errors):
            first.setdefault(self.group[k], self.errors[k])
        return first

    def step(self, duty: np.ndarray, dt: float, free: bool = False) -> None:
        """``FingerPlant.step`` for every alive lane; ``free`` leaves objects out."""
        pressure = self.pressure + (dt / self.tau_p) * (self.k_duty * duty - self.pressure)
        pressure = np.where(pressure < 0.0, 0.0, pressure)
        angle, force = _bend(pressure, self.bend_gain, self.angle_max, None if free else self.contact)
        alive = self.alive
        self.pressure = np.where(alive, pressure, self.pressure)
        self.angle = np.where(alive, angle, self.angle)
        self.contact_force = np.where(alive, force, self.contact_force)

    def sense(self) -> tuple:
        """``FingerPlant.sense`` of every alive lane, given the true state the
        lanes hold: (force_meas, angle_meas), the last values for the others."""
        live = np.flatnonzero(self.alive)
        force = _horner(self.true_columns, self.angle) + self.contact_force
        plants = self.plants if len(live) == self.n else [self.plants[k] for k in live]
        readings = list(map(FingerPlant.sense, plants, self.angle[live].tolist(), force[live].tolist()))
        self.force_meas[live] = [r.force_meas for r in readings]
        self.angle_meas[live] = [r.angle_meas for r in readings]
        return self.force_meas, self.angle_meas

    def estimate(self, force_meas: np.ndarray, angle_meas: np.ndarray) -> np.ndarray:
        """``contact_force(...).contact``; a lane out of its model's range fails."""
        out = self.alive & ((angle_meas < self.lo) | (angle_meas > self.hi))
        if out.any():
            models, margin = self.models, self.margin
            self.fail(out, lambda k: _raised(internal_force, models[k], float(angle_meas[k]), margin))
        internal = _horner(self.fit_columns, angle_meas)
        return force_meas - np.where(internal > 0.0, internal, 0.0)


def simulate_lanes(
    cfg: Config, lanes: Lanes, n_ticks: int, policy: Callable, record: Callable | None = None
) -> None:
    """The batched ``simulate``: up to ``n_ticks`` ticks of sense -> estimate
    -> policy -> step -> record for every alive lane at once.

    ``policy(i, contact)`` returns tick ``i``'s duty per lane and ends a lane
    by clearing ``lanes.alive`` before the step; ``record(i)``, if given,
    runs after the step.  A lane's first error ends its group with the tick.
    """
    dt = cfg.controller.period
    lanes.plants[0].check_dt(dt)
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        lanes.step(lanes.duty, dt, free=True)
        for i in range(n_ticks):
            if not lanes.alive.any():
                return
            contact = lanes.estimate(*lanes.sense())
            duty = policy(i, contact)
            lanes.step(duty, dt)
            if record is not None:
                record(i)
            if lanes.errors:
                failed = [lanes.group[k] for k in lanes.errors]
                lanes.alive &= ~np.isin(lanes.group, failed)


def _supervisor_policy(cfg: Config, lanes: Lanes, targets: np.ndarray) -> Callable:
    """``Supervisor.step`` with its ``PiController`` for every alive lane, as
    a ``simulate_lanes`` policy; the lanes hold the controller state."""
    cc = cfg.controller
    lo, hi, dt = cc.output_min, cc.output_max, cc.period
    # built once, with the checks the reference makes when it builds them
    sc = cfg.supervisor
    detector = ContactDetector(sc.contact_threshold, sc.hysteresis_ratio)
    ctrl = _build_controller(cfg)
    approach_step = cfg.supervisor.approach_rate * dt

    def supervise(i, contact):
        approach = lanes.alive & ~lanes.force_mode
        bad = approach & ~np.isfinite(contact)
        if bad.any():
            lanes.fail(bad, lambda k: _raised(detector.update, float(contact[k])))
            approach &= ~bad
        fired = approach & (contact >= detector.threshold)
        lanes.force_mode = lanes.force_mode | fired
        integral = np.where(fired, 0.0, lanes.integral)  # ctrl.reset() at the switch
        ramp = lanes.duty + approach_step
        ramp = np.where(ramp > lo, ramp, lo)
        duty = np.where(approach & ~fired, np.where(ramp < hi, ramp, hi), lanes.duty)
        force = lanes.alive & lanes.force_mode
        bad = force & ~(np.isfinite(targets) & np.isfinite(contact) & np.isfinite(duty))
        if bad.any():
            lanes.fail(
                bad, lambda k: _raised(ctrl.step, float(targets[k]), float(contact[k]), float(duty[k]))
            )
            force &= ~bad
        error = targets - contact
        candidate = integral + error * dt
        raw = duty + (cc.kp * error + cc.ki * candidate)
        clamped = np.where(raw > lo, raw, lo)
        clamped = np.where(clamped < hi, clamped, hi)
        winding_up = ((raw > hi) & (error > 0.0)) | ((raw < lo) & (error < 0.0))
        lanes.integral = np.where(force & ~winding_up, candidate, integral)
        lanes.duty = np.where(force, clamped, duty)
        return lanes.duty

    return supervise


# ---------------------------------------------------------------------------
# The closed-loop kernel


def _closed_loop(
    cfg: Config,
    plant_obj: FingerPlant,
    model: PolynomialModel,
    obj: ObjectModel,
    targets: list,
    duty: float,
    force_mode: bool,
) -> Trace:
    """One finger under ``Supervisor.step`` and its ``PiController``, one
    tick per target, in plain floats: the scalar twin of ``simulate_lanes``
    with ``_supervisor_policy``, recording a trace.

    ``force_mode`` starts the loop under the controller from ``duty``; else
    it approaches from ``duty`` until the contact detector fires, and the
    controller takes over that tick with its integral at zero.  The plant is
    stepped once in free space first, by ``FingerPlant.step``, and each tick
    reads its sensors through ``FingerPlant.sense``.  Every other operation
    repeats the scalar one (``contact_force``, ``Supervisor.step``,
    ``PiController.step``, ``FingerPlant.step``) in the same order, so the
    trace is the one the reference tick loop records bit for bit, and an
    error is raised on the tick, and with the message, that it would raise.
    """
    dt = cfg.controller.period
    plant_obj.step(duty, dt)  # raises FingerPlant.step's error for a bad dt
    # built once, with the checks the reference makes when it builds them
    sc = cfg.supervisor
    detector = None if force_mode else ContactDetector(sc.contact_threshold, sc.hysteresis_ratio)
    ctrl = _build_controller(cfg)
    sense = plant_obj.sense
    true_weights = tuple(reversed(plant_obj.internal_model.weights))
    fit_weights = tuple(reversed(model.weights))
    margin = cfg.supervisor.extrapolation_margin
    angle_lo, angle_hi = calibrated_range(model, margin)
    kp, ki, out_lo, out_hi = ctrl.kp, ctrl.ki, ctrl.output_min, ctrl.output_max
    approach_step = cfg.supervisor.approach_rate * dt
    rate, k_duty = dt / plant_obj.tau_p, plant_obj.k_duty
    bend_gain, angle_max = plant_obj.bend_gain, plant_obj.angle_max
    position, stiffness, share = contact_split(plant_obj.finger_stiffness, obj)
    pressure, angle, contact_true = plant_obj.pressure, plant_obj.angle, plant_obj.contact_force
    integral = 0.0
    switch_at = 0 if force_mode else None
    columns = duties, pressures, angles, f_ms, internals, contacts, trues = [], [], [], [], [], [], []
    for i, target in enumerate(targets):
        force = 0.0
        for w in true_weights:
            force = force * angle + w
        reading = sense(angle, force + contact_true)
        angle_meas, force_meas = reading.angle_meas, reading.force_meas
        if angle_meas < angle_lo or angle_meas > angle_hi:
            raise _raised(internal_force, model, angle_meas, margin)
        internal = 0.0
        for w in fit_weights:
            internal = internal * angle_meas + w
        if not internal > 0.0:
            internal = 0.0
        contact = force_meas - internal
        if switch_at is None:  # approach: Supervisor.step before the switch
            if not math.isfinite(contact):
                raise _raised(detector.update, contact)
            if contact >= detector.threshold:
                switch_at = i  # ctrl.reset() has nothing to clear: the integral is still 0.0
            else:
                duty = duty + approach_step
                duty = duty if duty > out_lo else out_lo
                duty = duty if duty < out_hi else out_hi
        if switch_at is not None:  # PiController.step
            if not (math.isfinite(target) and math.isfinite(contact) and math.isfinite(duty)):
                raise _raised(ctrl.step, target, contact, duty)
            error = target - contact
            candidate = integral + error * dt
            raw = duty + (kp * error + ki * candidate)
            duty = raw if raw > out_lo else out_lo
            duty = duty if duty < out_hi else out_hi
            if not ((raw > out_hi and error > 0.0) or (raw < out_lo and error < 0.0)):
                integral = candidate
        # FingerPlant.step
        pressure = pressure + rate * (k_duty * duty - pressure)
        if pressure < 0.0:
            pressure = 0.0
        theta = bend_gain * pressure
        if angle_max < theta:
            theta = angle_max
        if theta > position:
            angle = position + (theta - position) * share
            if angle > theta:
                angle = theta
            contact_true = stiffness * (angle - position)
        else:
            angle, contact_true = theta, 0.0
        duties.append(duty)
        pressures.append(pressure)
        angles.append(angle)
        f_ms.append(force_meas)
        internals.append(internal)
        contacts.append(contact)
        trues.append(contact_true)
    n = len(targets)
    switch_at = n if switch_at is None else switch_at
    modes = [Mode.APPROACH.value] * switch_at + [Mode.FORCE_CONTROL.value] * (n - switch_at)
    return Trace([i * dt for i in range(n)], *columns, modes)


# ---------------------------------------------------------------------------
# Calibration experiment (free-space ramp cycles -> fitted per-finger models)


@dataclass
class CalibrationResult:
    reports: list  # CalibrationReport per finger
    sample_sets: list  # list[Sample] per finger
    traces: list  # Trace per finger, or None per finger when not recorded


def calibrate_finger(cfg: Config, finger: int, seed: int, with_trace: bool = False) -> tuple:
    """One finger's staircase ramp cycles; returns (samples, trace), the
    trace None unless ``with_trace``.

    The ramp is open loop: no reading feeds back into the duty.  So every
    cycle's levels are drawn first, in cycle order, and ``_open_loop`` steps
    the whole ramp's free-space mechanics; then its sensors are read in one
    pass, one ``FingerPlant.sense`` per tick in tick order, so the noise and
    the filter advance as they would in a tick loop.  Tick ``i`` reads the
    state its duty drove; the last dwell tick of each level, and of the rest,
    gives a sample.  The trace's estimate is ``contact_force``'s against the
    plant's own internal model, with the arithmetic of ``Lanes``.
    """
    cal = cfg.calibration
    dt = cfg.controller.period
    plant_obj = _build_plant(cfg, finger, derive_seed(seed, "calibration", finger, "plant"))
    level_rng = random.Random(derive_seed(seed, "calibration", finger, "levels"))
    peak_duty = min(MAX_DUTY, cal.peak_pressure / cfg.plant.k_duty)
    base_levels = [peak_duty * k / cal.levels for k in range(1, cal.levels + 1)]
    hold_ticks = max(1, int(round(cal.hold_s / dt)))
    rest_ticks = max(1, int(round(cal.rest_s / dt)))
    duties = []  # duty per tick, each cycle up to the peak, back down, then rest
    ends = []  # per tick, True where its reading is a sample: each dwell's last tick
    for _ in range(cal.cycles):
        jittered = [
            min(MAX_DUTY, max(1.0, lv + level_rng.uniform(-cal.level_jitter, cal.level_jitter)))
            for lv in base_levels
        ]
        # rest-dwell sample anchors the fit near zero bend, so later runs that
        # start from rest stay inside the calibrated range
        dwells = [(duty, hold_ticks) for duty in jittered + jittered[-2::-1]] + [(0.0, rest_ticks)]
        for duty, ticks in dwells:
            duties += [duty] * ticks
            ends += [False] * (ticks - 1) + [True]
    pressures, angles, contact = _open_loop(plant_obj, duties, dt)
    readings = _senses(plant_obj, angles, contact)
    if with_trace:
        readings = list(readings)
    samples = [Sample(r.angle_meas, r.force_meas) for r in compress(readings, ends)]
    if not with_trace:
        return samples, None
    n = len(duties)
    f_m = np.array([r.force_meas for r in readings])
    angle_meas = np.array([r.angle_meas for r in readings])
    del readings  # one object per tick: freed before the trace's columns are built
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        internal = _horner(_weight_columns([plant_obj.internal_model]), angle_meas)
        internal = np.where(internal > 0.0, internal, 0.0)
        estimate = internal.tolist(), (f_m - internal).tolist()
    times = list(accumulate(repeat(dt, n - 1), initial=0.0))
    columns = duties, pressures.tolist(), angles.tolist(), f_m.tolist(), *estimate, contact.tolist()
    return samples, Trace(times, *columns, ["calibrate"] * n)


def run_calibration_experiment(
    cfg: Config, seed: int | None = None, with_trace: bool = False
) -> CalibrationResult:
    """Free-space characterization: ramp cycles per finger, then fit and
    BIC-select an internal-force polynomial for each."""
    seed = cfg.seed if seed is None else seed
    reports, sample_sets, traces = [], [], []
    for finger in range(3):
        samples, trace = calibrate_finger(cfg, finger, seed, with_trace)
        report = calib.select_model(samples, cfg.calibration.max_degree)
        reports.append(report)
        sample_sets.append(samples)
        traces.append(trace)
    return CalibrationResult(reports=reports, sample_sets=sample_sets, traces=traces)


def calibrate_models(cfg: Config, seed: int | None = None) -> list:
    """Fitted per-finger models (the artifact every other experiment needs)."""
    return [r.selected() for r in run_calibration_experiment(cfg, seed).reports]


def _master_and_models(cfg: Config, seed: int | None, models) -> tuple:
    """An experiment's master seed, and its models: calibrated from it unless given."""
    master = cfg.seed if seed is None else seed
    return master, calibrate_models(cfg, master) if models is None else models


# ---------------------------------------------------------------------------
# Estimation accuracy (press against a scale to a target, compare estimate)


@dataclass(frozen=True)
class EstimationRow:
    seed: int
    position_angle: float
    target: float
    estimated: float | None
    true_force: float | None
    abs_error: float | None
    flagged: str | None = None


def run_estimation_accuracy(cfg: Config, seed: int | None = None, models=None) -> list:
    """Scale-press accuracy sweep over the position grid; one row per (seed, position).

    Each cell is a lane that ramps the duty until the true force reaches the
    target, settles, then averages the estimate and the truth over a window;
    the cells run in batches of at most ``BATCH_LANES`` lanes.
    """
    master, models = _master_and_models(cfg, seed, models)
    est = cfg.estimation
    cells = [
        (derive_seed(master, "estimation-seed", s), position)
        for s in range(est.n_seeds)
        for position in est.positions
    ]
    rows = []
    for k in range(0, len(cells), BATCH_LANES):
        rows += _estimation_rows(cfg, models[0], cells[k : k + BATCH_LANES])
    return rows


def _estimation_rows(cfg: Config, model: PolynomialModel, cells: list) -> list:
    """One batch of estimation cells, each (seed, position); a failing cell
    raises, the first in the order given."""
    est = cfg.estimation
    dt = cfg.controller.period
    objs = [ObjectModel(position_angle=position, stiffness=est.scale_stiffness) for _, position in cells]
    plants = [_build_plant(cfg, 0, derive_seed(s, "estimation", pos, "plant")) for s, pos in cells]
    lanes = Lanes(cfg, plants, [model] * len(cells), objs)
    settle_ticks = max(1, int(round(est.settle_s / dt)))
    window_ticks = max(1, int(round(est.window_s / dt)))
    n = lanes.n
    pressed, unreachable = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    # floats, exact for any tick count a run reaches, and comparable with
    # tick counts beyond int64
    pressed_at, count = np.zeros(n), np.zeros(n)
    est_acc, true_acc = np.zeros(n), np.zeros(n)

    def press_settle_measure(i, contact):
        alive = lanes.alive
        pressing = alive & ~pressed
        reached = pressing & (lanes.contact_force >= est.target)
        at_max = pressing & ~reached & (lanes.duty >= MAX_DUTY)
        ramp = lanes.duty + est.ramp_rate * dt
        ramping = pressing & ~reached & ~at_max
        lanes.duty = np.where(ramping, np.where(ramp < MAX_DUTY, ramp, MAX_DUTY), lanes.duty)
        measuring = alive & pressed & (i > pressed_at + settle_ticks)
        pressed_at[reached] = i
        pressed[reached] = True
        np.add(est_acc, contact, out=est_acc, where=measuring)
        np.add(true_acc, lanes.contact_force, out=true_acc, where=measuring)
        count[measuring] += 1.0
        unreachable[at_max] = True
        lanes.alive &= ~(at_max | (measuring & (count == window_ticks)))
        return lanes.duty

    simulate_lanes(cfg, lanes, int(round(est.timeout_s / dt)), press_settle_measure)
    errors = lanes.group_errors()
    rows = []
    for k, (s, position) in enumerate(cells):
        if k in errors:
            raise errors[k]
        m = int(count[k])
        if m == 0:
            flagged = "unreachable at max duty" if unreachable[k] else "timeout"
            rows.append(EstimationRow(s, position, est.target, None, None, None, flagged=flagged))
            continue
        estimated = float(est_acc[k]) / m
        true_force = float(true_acc[k]) / m
        error = abs(estimated - true_force)
        rows.append(EstimationRow(s, position, est.target, estimated, true_force, error))
    return rows


# ---------------------------------------------------------------------------
# Step response (contact pre-established, 3 N then 2 N reference)


@dataclass
class StepResult:
    trace: Trace
    metrics: list  # StepMetrics per segment


def run_step_response(cfg: Config, seed: int | None = None, models=None) -> list:
    """The step-reference experiment, repeated over n_seeds plants."""
    master, models = _master_and_models(cfg, seed, models)
    model = models[0]
    sc = cfg.step
    obj = sc.object.build()
    duration = 2.0 * sc.segment_s
    dt = cfg.controller.period
    n = int(round(duration / dt))
    targets = [sc.first_target if i * dt < sc.segment_s else sc.second_target for i in range(n)]
    results = []
    for s in range(sc.n_seeds):
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "step", s))
        duty = sc.warm_start_duty
        if duty > 0.0:
            plant_obj.pressure = cfg.plant.k_duty * duty
        trace = _closed_loop(cfg, plant_obj, model, obj, targets, duty, force_mode=True)
        metrics = [
            compute_step_metrics(trace, sc.first_target, 0.0, sc.segment_s),
            compute_step_metrics(trace, sc.second_target, sc.segment_s, duration),
        ]
        results.append(StepResult(trace=trace, metrics=metrics))
    return results


# ---------------------------------------------------------------------------
# Switching experiment (approach from 0% duty, control after contact)


@dataclass
class SwitchingResult:
    trace: Trace
    metrics: StepMetrics
    switch_time: float | None
    duty_range_post_settle: tuple | None


def run_switching_experiment(cfg: Config, seed: int | None = None, models=None) -> list:
    master, models = _master_and_models(cfg, seed, models)
    model = models[0]
    sw = cfg.switching
    obj = sw.object.build()
    targets = [sw.target] * int(round(sw.duration_s / cfg.controller.period))
    results = []
    for s in range(sw.n_seeds):
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "switching", s))
        trace = _closed_loop(cfg, plant_obj, model, obj, targets, 0.0, force_mode=False)
        # the switch tick's k * dt, read off its row (the first in force control);
        # a run that never switches is measured whole
        t_switch = next((t for t, m in zip(trace.t, trace.mode) if m == Mode.FORCE_CONTROL.value), None)
        metrics = compute_step_metrics(trace, sw.target, t_switch or 0.0, sw.duration_s)
        duty_band = None
        if t_switch is not None and metrics.settled:
            post = trace.duty[bisect_left(trace.t, t_switch + metrics.settling_time) :]
            duty_band = (min(post), max(post))
        results.append(SwitchingResult(trace, metrics, t_switch, duty_band))
    return results


# ---------------------------------------------------------------------------
# Grasp sweep (three fingers, force balance, outcome statistics)


@dataclass(frozen=True)
class SweepRow:
    object: str
    target_force: float
    dropped_pct: float
    deformed_pct: float
    broken_pct: float
    n_trials: int


@dataclass
class SweepTable:
    rows: list  # SweepRow

    def for_object(self, name: str) -> list:
        return [r for r in self.rows if r.object == name]


def _grasp_outcomes(cfg: Config, master: int, models: list, trials: list) -> list:
    """Run grasp trials, each (object, set-point, trial), as one batch of
    three-finger lanes: approach, regulate, then judge each outcome.

    Finger targets are (F/2, F/2, F) so the paired fingers balance the
    opposable one exactly.  Failure thresholds draw from a trial RNG keyed by
    (master, object, trial) -- deliberately not by set-point, so sweeps share
    draws across force levels (common random numbers).  So do the plants'
    noise seeds, and the lanes of one seed, which step in lockstep, read one
    ``GaussStream``.  A failing trial raises, the first in the order given,
    as a trial-by-trial loop would.
    """
    if not trials:
        return []
    objs = {name: oc.build() for name, oc in cfg.grasp.objects.items()}
    thresholds, targets = [], []
    for name, setpoint, trial in trials:
        obj = objs[name]
        trial_rng = random.Random(derive_seed(master, "grasp", name, trial, "thresholds"))
        deform_thr = (
            trial_rng.gauss(obj.deform_threshold, obj.deform_spread)
            if math.isfinite(obj.deform_threshold)
            else math.inf
        )
        break_thr = (
            trial_rng.gauss(obj.break_threshold, obj.break_spread)
            if math.isfinite(obj.break_threshold)
            else math.inf
        )
        thresholds.append((deform_thr, break_thr))
        targets += [setpoint / 2.0, setpoint / 2.0, setpoint]
    fingers = [(name, trial, f) for name, _, trial in trials for f in range(3)]
    plants, streams = [], {}
    for name, trial, f in fingers:
        seed = derive_seed(master, "grasp", name, trial, "plant", f)
        plant_obj = _build_plant(cfg, f, seed)
        plant_obj.noise = streams.setdefault(seed, plant_obj.noise)
        plants.append(plant_obj)
    lane_objs = [objs[name] for name, _, _ in fingers]
    lanes = Lanes(cfg, plants, list(models) * len(trials), lane_objs, group=np.arange(len(fingers)) // 3)
    dt = cfg.controller.period
    n = int(round(cfg.grasp.duration_s / dt))
    tail_from = max(0, n - int(round(cfg.grasp.settle_window_s / dt)))
    peak, tail_sums = np.zeros(lanes.n), np.zeros(lanes.n)

    def record(i):
        force = lanes.contact_force
        np.copyto(peak, force, where=force > peak)
        if i >= tail_from:
            np.add(tail_sums, force, out=tail_sums)

    simulate_lanes(cfg, lanes, n, _supervisor_policy(cfg, lanes, np.array(targets)), record)
    errors = lanes.group_errors()
    outcomes = []
    for k, (name, setpoint, trial) in enumerate(trials):
        exc = errors.get(k)
        if isinstance(exc, OutOfRangeError):
            raise OutOfRangeError(f"grasp of {name} at {setpoint} N, trial {trial}: {exc}") from exc
        if exc is not None:
            raise exc
        own = slice(3 * k, 3 * k + 3)
        tail, peaks = tail_sums[own].tolist(), peak[own].tolist()
        grip = sum(tail[f] / (n - tail_from) for f in range(3))
        deform_thr, break_thr = thresholds[k]
        deformed = any(pk > deform_thr for pk in peaks)
        broken = any(pk > break_thr for pk in peaks)
        shake_rng = random.Random(derive_seed(master, "grasp", name, trial, "shake"))
        held = shake_test(grip, objs[name], shake_rng)
        outcomes.append(GraspOutcome(dropped=not held, deformed=deformed, broken=broken))
    return outcomes


def grasp_trial(
    cfg: Config, object_name: str, setpoint: float, trial: int, master: int, models: list
) -> GraspOutcome:
    """One three-finger grasp, run as a batch of one trial."""
    return _grasp_outcomes(cfg, master, models, [(object_name, setpoint, trial)])[0]


def run_grasp_sweep(cfg: Config, seed: int | None = None, jobs: int = 1, models=None) -> SweepTable:
    """Outcome percentages per (object, set-point) over n_trials grasps each.

    The trials run in contiguous batches of at most ``BATCH_LANES`` lanes;
    with ``jobs`` > 1 there are at least ``jobs`` batches, which a process
    pool runs.  Either way the outcomes concatenate in task order.
    """
    master, models = _master_and_models(cfg, seed, models)
    n = cfg.grasp.n_trials
    cells = [(name, float(sp)) for name in sorted(cfg.grasp.objects) for sp in cfg.grasp.setpoints]
    trials = [(name, sp, trial) for name, sp in cells for trial in range(n)]
    run = partial(_grasp_outcomes, cfg, master, models)
    size = max(1, min(BATCH_LANES // 3, -(-len(trials) // jobs)))
    chunks = [trials[k : k + size] for k in range(0, len(trials), size)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = map(run, chunks)
    outcomes = [o for part in parts for o in part]  # in task order
    rows = []
    for k, (name, sp) in enumerate(cells):
        cell = outcomes[k * n : (k + 1) * n]  # outcomes keep task order
        rows.append(
            SweepRow(
                object=name,
                target_force=sp,
                dropped_pct=100.0 * sum(o.dropped for o in cell) / n,
                deformed_pct=100.0 * sum(o.deformed for o in cell) / n,
                broken_pct=100.0 * sum(o.broken for o in cell) / n,
                n_trials=n,
            )
        )
    return SweepTable(rows=rows)


# ---------------------------------------------------------------------------
# Hardness probe (open-loop ramp into an object; slope of angle vs force)


@dataclass
class HardnessResult:
    classification: str | None  # "stiff" | "soft" | None (no contact)
    slope_deg_per_n: float | None
    trace: Trace


def probe_hardness(cfg: Config, stiffness: float | None, seed: int, models) -> HardnessResult:
    """Open-loop duty ramp; classify from the post-contact d(angle)/d(force).

    ``stiffness`` None means a free-space probe, which yields no
    classification (guard: no contact, nothing to classify); so do fewer
    than 20 points in contact, a probe whose estimate never reaches the
    contact detector's threshold, or points with one estimated force.

    The ramp is fixed in advance, so after one free-space step at duty 0
    ``_open_loop`` steps the whole probe, and each tick then reads the state
    the step before it left: one ``FingerPlant.sense`` and one
    ``contact_force`` per tick, in tick order, as a tick loop would.
    """
    hc = cfg.hardness
    dt = cfg.controller.period
    obj = None if stiffness is None else ObjectModel(hc.position_angle, stiffness)
    plant_obj = _build_plant(cfg, 0, derive_seed(seed, "hardness", stiffness or "free"))
    model, margin = models[0], cfg.supervisor.extrapolation_margin
    n = int(round(hc.duration_s / dt))
    duties, duty = [], 0.0
    for _ in range(n):
        duty = min(hc.max_duty, duty + hc.ramp_rate * dt)
        duties.append(duty)
    plant_obj.step(0.0, dt)  # in free space before the first tick; raises for a bad dt
    angle0, contact0 = plant_obj.angle, plant_obj.contact_force
    pressures, angles, contact = _open_loop(plant_obj, duties, dt, obj)
    # tick i senses the state the step before it left
    readings = _senses(plant_obj, np.append(angle0, angles)[:n], np.append(contact0, contact)[:n])
    f_m, internals, estimates, points = [], [], [], []
    for reading in readings:
        estimate = contact_force(reading, model, margin)
        f_m.append(reading.force_meas)
        internals.append(estimate.internal)
        estimates.append(estimate.contact)
        if estimate.contact > hc.min_contact_force:
            points.append((estimate.contact, reading.angle_meas))
    columns = duties, pressures.tolist(), angles.tolist(), f_m, internals, estimates, contact.tolist()
    trace = Trace([i * dt for i in range(n)], *columns, ["probe"] * n)
    forces = [p[0] for p in points]
    touched = any(e >= cfg.supervisor.contact_threshold for e in estimates)  # as ContactDetector fires
    if len(points) < 20 or not touched or min(forces) == max(forces):
        return HardnessResult(classification=None, slope_deg_per_n=None, trace=trace)
    # least-squares slope of angle against estimated force
    mf = sum(forces) / len(points)
    ma = sum(p[1] for p in points) / len(points)
    sxx = sum((f - mf) ** 2 for f in forces)
    if sxx == 0.0:  # tiny forces whose squared deviations underflow: no slope to fit
        return HardnessResult(classification=None, slope_deg_per_n=None, trace=trace)
    slope = sum((p[0] - mf) * (p[1] - ma) for p in points) / sxx
    classification = "stiff" if slope < hc.slope_threshold else "soft"
    return HardnessResult(classification=classification, slope_deg_per_n=slope, trace=trace)


def run_hardness_probe(cfg: Config, seed: int | None = None, models=None) -> dict:
    """Probe the stiff and soft reference objects; returns both results."""
    master, models = _master_and_models(cfg, seed, models)
    return {
        "stiff": probe_hardness(cfg, cfg.hardness.stiff_stiffness, master, models),
        "soft": probe_hardness(cfg, cfg.hardness.soft_stiffness, master, models),
    }
