"""Scripted experiments on the simulated plant.

Each experiment builds its plants/controllers from a Config, steps them at the
controller period, and returns traces plus derived metrics.  Every run is
reproducible bit-exactly from (config, seed): all randomness flows through
seeds derived from the master seed and stable trial labels, so parallel and
serial execution produce identical results.

Three tick kernels step the experiments, and give the same bits:

- ``_open_loop`` steps one finger through a duty schedule fixed in advance:
  the target pressures in one numpy product, the pressure recurrence in
  floats, the bend and the contact in numpy.  Its callers then read the
  sensors through ``_senses``, one ``FingerPlant.sense`` per tick, in tick
  order, as one ``map`` per 512 ticks chained together, with no
  generator frame per tick.  The calibration ramp (3 fingers of 12,390
  ticks at the default config) and the hardness probe (2 runs of 480) use
  it.
- ``_closed_loop`` steps one finger under the supervisor and its PI
  controller in plain floats, one tick per loop pass, with its state in
  locals.  It lists only the trace columns the loop alone knows, and
  derives the bend, the true contact and the estimate from them in numpy
  after the loop.  The step response (5 runs of 7,200 ticks) and the
  switching experiment (10 runs of 900) use it.
- ``_grasp_lanes`` steps the grasp sweep (540 lanes of 600 ticks), whose
  duty feeds back on each finger's estimate, in lockstep, with each state
  quantity one float64 or bool array over the lanes, in batches of at most
  ``BATCH_LANES``.  Each block of its tick runs only while a live lane
  needs it: the approach until every lane has switched to force control
  (by tick 100 of 600 at the default config), the PI from the first
  switch, and the failed-lane masks from the first failure.

The estimation sweep's press follows the scale's true force, never the
sensors, so ``_press`` steps each position's mechanics once by
``FingerPlant.step``, and each cell reads its own sensors over them through
``_senses``.

``_open_loop`` and ``_grasp_lanes`` share one bend law (``_bend``).  The
kernels inline only per-tick arithmetic: the contact split, the step-size
limit and the calibrated range come from ``plant`` and ``estimation``.  On
every path the kernel holds the true state, and each finger reads its
sensors on it through its own ``FingerPlant.sense(angle, force)``, which
adds the finger's noise; the grasp lanes that share a plant seed read one
noise stream.  Every kernel knows its run's senses before the first, so
``_build_plant`` states them to the plant's stream, which draws its noise in
blocks that cover the run and no more (``GaussStream``): the calibration
ramp's 24,780 values per finger as six blocks of 4,096 and one of 204, each
estimation cell's in one block, and each grasp stream's 1,200 in one.

A trace holds its numbers as ``array('d')`` columns (``Trace``), a quarter
of the memory of lists of floats, built from the kernels' numpy arrays as
bytes or from the closed loop's lists once per run.

``tests/reference.py`` holds the reference model every path is checked
against: ``simulate``, a tick loop that steps a few fingers one Python call
at a time (``FingerPlant.step``, its ``sense`` of the plant's own state,
``contact_force``, and a policy closure that can drive a real
``Supervisor`` and ``PiController``).  Each path wins over it where it is
used.  On a 2-CPU VM (Python 3.11, numpy 2.4; in-process medians, the range
of two sessions) the default grasp sweep took 0.26-0.29 s batched against
1.9-2.7 s on the reference, the estimation sweep 0.09-0.10 s against 0.35-0.46 s, the step
response 0.09-0.12 s on ``_closed_loop`` against 0.28-0.34 s, and the
switching experiment 0.032 s against 0.074-0.091 s.
``tests/test_open_loop*.py``, ``tests/test_closed_loop.py``
and ``tests/test_batch.py`` check the paths against the reference, and the
committed ``BENCH_*.json`` files hold the benchmark's before/after records.
"""

from __future__ import annotations

import copy
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from array import array
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import calibration as calib
from .calibration import CSV_LINE_END, PolynomialModel, Sample, _horner
from .config import Config
from .control import Mode, PiController
from .errors import SoftgripError
from .estimation import ContactDetector, calibrated_range, contact_force, internal_force
from .plant import MAX_DUTY, NOISE_BLOCK, FingerPlant, ObjectModel, contact_split, shake_test
from .seeding import derive_seed

TRACE_HEADER = ("t", "duty", "pressure_kpa", "angle_deg", "f_m", "f_i_pred", "f_c_est", "f_c_true", "mode")
_TRACE_ROW = "%r," * (len(TRACE_HEADER) - 1) + "%s" + CSV_LINE_END
SETTLING_BAND = 0.05  # StepMetrics' settling band, a fraction of the target


def _floats():
    """A trace column's field: a new, empty ``array('d')`` per trace."""
    return field(default_factory=partial(array, "d"))


@dataclass
class Trace:
    """Uniformly sampled run record; one row per control tick.

    The eight numeric columns are ``array('d')``: 8 B per value, where a
    list holds a 24 B float object and an 8 B slot for each.  ``mode`` is a
    list of the few shared mode strings.  Reading a column yields Python
    floats, so the metrics and ``to_csv`` read it as they would a list.
    """

    t: array = _floats()
    duty: array = _floats()
    pressure: array = _floats()
    angle: array = _floats()
    f_m: array = _floats()
    f_i_pred: array = _floats()
    f_c_est: array = _floats()
    f_c_true: array = _floats()
    mode: list = field(default_factory=list)

    def append(self, *row):
        """Append one row, its values given positionally in column order.  A
        row of another length raises ``ValueError`` and appends nothing."""
        for column, value in list(zip(vars(self).values(), row, strict=True)):
            column.append(value)

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


def _build_plant(cfg: Config, finger: int, seed: int, senses: int = 0) -> FingerPlant:
    """The finger's plant: ``cfg.plant``'s mechanical fields by name, and
    ``internal_weights`` scaled by the finger's ``finger_scales`` entry as
    its internal-force model.  ``senses`` is the count of readings its run
    will take, stated to its noise stream (``GaussStream.need``: one value
    per reading and noisy channel), so the stream draws its blocks to fit
    the run; 0 states no run."""
    mechanics = dict(vars(cfg.plant))
    scales = mechanics.pop("finger_scales")
    weights = tuple(float(w) * scales[finger % len(scales)] for w in mechanics.pop("internal_weights"))
    model = PolynomialModel(degree=len(weights) - 1, weights=weights)
    plant_obj = FingerPlant(model, seed=seed, **mechanics)
    plant_obj.noise.need = senses * ((plant_obj.noise_sigma > 0.0) + (plant_obj.angle_noise_sigma > 0.0))
    return plant_obj


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


def _column(values: np.ndarray) -> array:
    """A float64 numpy array as a trace column, copied as bytes."""
    return array("d", values.tobytes())


def _tick_times(n: int, dt: float) -> array:
    """``i * dt`` for the ticks ``i`` of a run: numpy converts each int to a
    double and multiplies, as Python does."""
    return _column(np.arange(n) * dt)


def _open_loop(plant_obj: FingerPlant, duties, dt: float, obj: ObjectModel | None = None) -> tuple:
    """``FingerPlant.step(duty, dt, obj)`` for each duty of a schedule fixed in
    advance (an ``array('d')`` or a list): (pressures, angles, contact forces)
    after each step, as float64 arrays.

    The target pressures ``k_duty * duty`` are one numpy product over the
    schedule, the pressure recurrence runs in floats, the bend and the
    contact in numpy (``_bend``), and the plant is left in its last step's
    state.  A ``dt`` the plant refuses raises its error before any step.
    """
    plant_obj.check_dt(dt)
    rate = dt / plant_obj.tau_p
    with np.errstate(all="ignore"):  # as Python floats reach inf, without warnings
        targets = plant_obj.k_duty * np.asarray(duties, dtype=float)
    pressure = plant_obj.pressure
    pressures = array("d")
    for target in targets.tolist():
        pressure += rate * (target - pressure)
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
    return pressures, angles, forces


def _senses(plant_obj: FingerPlant, angles: np.ndarray, contact: np.ndarray):
    """``FingerPlant.sense`` of each state (true angle, contact force), one
    call per state, in order, as the returned iterator is read.  The states
    become Python floats a block at a time, so a long run holds few, and
    each block's calls run as one ``map``, with no generator frame per tick."""
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        forces = _horner(reversed(plant_obj.internal_model.weights), angles) + contact
    return chain.from_iterable(
        map(plant_obj.sense, angles[k : k + NOISE_BLOCK].tolist(), forces[k : k + NOISE_BLOCK].tolist())
        for k in range(0, len(angles), NOISE_BLOCK)
    )


# ---------------------------------------------------------------------------
# The batched tick kernel

# Lanes per batch.  Wider batches spread each numpy call over more lanes, but
# every lane keeps its FingerPlant (sensor filter, and a noise stream of
# about 12 kB at the default 600 ticks unless it shares one) until its batch
# ends, so the grasp sweep runs in batches of at most this many and memory
# stays flat as it grows.  The default grasp sweep (540 lanes) runs as one
# batch: in-process it took 0.47, 0.31-0.34, 0.31-0.36 and 0.26-0.29 s in
# batches of 90, 180, 270 and 540 lanes (2-CPU VM, Python 3.11, numpy 2.4;
# medians of 5 alternating rounds, twice).
BATCH_LANES = 540


def _raised(check: Callable, *args) -> Exception:
    """The error the scalar ``check(*args)`` raises for a lane the batch found
    failing, so each error message keeps one source."""
    try:
        check(*args)
    except SoftgripError as exc:
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


def _grasp_lanes(
    cfg: Config, plants: list, models: list, objs: list, targets: list, n_ticks: int, tail_from: int
) -> tuple:
    """The grasp sweep's fingers stepped in lockstep as numpy arrays over
    lanes, lanes ``3k..3k+2`` being trial ``k``: up to ``n_ticks`` ticks of
    sense -> estimate -> ``Supervisor.step`` with its ``PiController`` ->
    ``FingerPlant.step`` -> record for every alive lane at once, after one
    free-space step at duty 0.  Returns (peak, tail_sums, errors by trial):
    each lane's peak true contact force and its sum over the ticks from
    ``tail_from``, and each failed trial's error.  A failed trial's lanes
    step on unread, so their peaks and sums mean nothing.

    Built from the FingerPlants ``_build_plant`` returns, which share
    ``cfg.plant``'s parameters and bring their own internal model, noise
    stream and sensor filter, plus each lane's fitted model, object and
    target.  Each lane-tick is one call of the lane's ``FingerPlant.sense``
    on the true state.  Every other operation repeats the scalar one in
    order (Python's ``max(a, b)`` is ``np.where(b > a, b, a)``), so a lane
    reproduces its reference run bit for bit.  A failing lane ends its trial
    with the tick, and a trial's error is its lowest failing lane's, the one
    the scalar loop, visiting the lanes in order, would have raised.
    """
    dt = cfg.controller.period
    p = plants[0]  # the parameters every lane shares
    p.check_dt(dt)  # raises FingerPlant.step's error before any step
    # built once, with the checks the reference makes when it builds them
    detector = ContactDetector(cfg.supervisor.contact_threshold)
    ctrl = _build_controller(cfg)
    kp, ki, out_lo, out_hi = ctrl.kp, ctrl.ki, ctrl.output_min, ctrl.output_max
    approach_step = cfg.supervisor.approach_rate * dt
    rate, k_duty, bend_gain, angle_max = dt / p.tau_p, p.k_duty, p.bend_gain, p.angle_max
    n = len(plants)
    true_columns = _weight_columns([plant.internal_model for plant in plants])
    fit_columns = _weight_columns(models)
    margin = cfg.supervisor.extrapolation_margin
    angle_lo, angle_hi = np.array([calibrated_range(m, margin) for m in models]).T
    # (position, stiffness, share), one array each over the lanes
    contacts = [contact_split(p.finger_stiffness, o) for o in objs]
    split = tuple(np.array(column, dtype=float) for column in zip(*contacts))
    targets = np.array(targets, dtype=float)
    finite_targets = np.isfinite(targets)
    all_targets_finite = finite_targets.all()
    # one array each, so an in-place write to one leaves the others alone
    pressure, angle_meas, force_meas, duty, integral, peak, tail_sums = (np.zeros(n) for _ in range(7))
    force_mode = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)  # all True while ``errors`` is empty
    trial = np.arange(n) // 3
    errors = {}  # lane -> its error
    # Each block runs only while a live lane needs it: the approach while one
    # approaches, the PI once one is in force control, and the ``alive`` masks
    # once one has failed.  A failed lane's state is never read again, so it
    # steps on with the rest, and the PI steps every lane once none approaches.
    approaching, controlling = True, False
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        # FingerPlant.step in free space at duty 0, before the first tick
        pressure = pressure + rate * (k_duty * duty - pressure)
        pressure = np.where(pressure < 0.0, 0.0, pressure)
        angle, contact_true = _bend(pressure, bend_gain, angle_max, None)
        for i in range(n_ticks):
            if errors and not alive.any():
                break
            # FingerPlant.sense of every alive lane; the others keep their last readings
            live = np.flatnonzero(alive) if errors else slice(None)
            noiseless = _horner(true_columns, angle) + contact_true
            lane_plants = [plants[k] for k in live] if errors else plants
            angles, forces = angle[live].tolist(), noiseless[live].tolist()
            angle_meas[live], force_meas[live] = zip(*map(FingerPlant.sense, lane_plants, angles, forces))
            # contact_force(...).contact; a lane out of its model's range fails
            out = (angle_meas < angle_lo) | (angle_meas > angle_hi)
            if out.any():
                for k in np.flatnonzero(out & alive):
                    errors[k] = _raised(internal_force, models[k], float(angle_meas[k]), margin)
                alive &= ~out
            internal = _horner(fit_columns, angle_meas)
            contact = force_meas - np.where(internal > 0.0, internal, 0.0)
            finite = np.isfinite(contact)
            all_finite = finite.all()
            # Supervisor.step: approach until the detector fires
            if approaching:
                approach = alive & ~force_mode if errors else ~force_mode
                if not all_finite:
                    bad = approach & ~finite
                    for k in np.flatnonzero(bad):
                        errors[k] = _raised(detector.update, float(contact[k]))
                    alive &= ~bad
                    approach &= ~bad
                fired = approach & (contact >= detector.threshold)
                force_mode |= fired  # ctrl.reset() has nothing to do: the integral is still 0.0
                ramping = approach & ~fired
                ramp = duty + approach_step
                ramp = np.where(ramp > out_lo, ramp, out_lo)
                duty = np.where(ramping, np.where(ramp < out_hi, ramp, out_hi), duty)
                controlling = controlling or fired.any()
                approaching = ramping.any()
            # PiController.step in force control.  The duty needs no finiteness check:
            # every tick clamps it into the finite [output_min, output_max].
            if controlling:
                if not (all_finite and all_targets_finite):
                    bad = alive & force_mode & ~(finite & finite_targets)
                    for k in np.flatnonzero(bad):
                        errors[k] = _raised(ctrl.step, float(targets[k]), float(contact[k]), float(duty[k]))
                    alive &= ~bad
                error = targets - contact
                candidate = integral + error * dt
                raw = duty + (kp * error + ki * candidate)
                clamped = np.where(raw > out_lo, raw, out_lo)
                clamped = np.where(clamped < out_hi, clamped, out_hi)
                winding_up = ((raw > out_hi) & (error > 0.0)) | ((raw < out_lo) & (error < 0.0))
                if approaching:
                    integral = np.where(force_mode & ~winding_up, candidate, integral)
                    duty = np.where(force_mode, clamped, duty)
                else:
                    integral = np.where(winding_up, integral, candidate)
                    duty = clamped
            # FingerPlant.step of every lane; a failed lane's state is never read again
            pressure = pressure + rate * (k_duty * duty - pressure)
            pressure = np.where(pressure < 0.0, 0.0, pressure)
            angle, contact_true = _bend(pressure, bend_gain, angle_max, split)
            np.copyto(peak, contact_true, where=contact_true > peak)
            if i >= tail_from:
                np.add(tail_sums, contact_true, out=tail_sums)
            if errors:  # a failed lane's trial ends with the tick
                alive &= ~np.isin(trial, [trial[k] for k in errors])
    by_trial = {}
    for k in sorted(errors):
        by_trial.setdefault(trial[k], errors[k])
    return peak, tail_sums, by_trial


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
    tick per target, in plain floats: the scalar twin of ``_grasp_lanes``,
    recording a trace.

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
    detector = None if force_mode else ContactDetector(sc.contact_threshold)
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
    split = position, stiffness, share = contact_split(plant_obj.finger_stiffness, obj)
    pressure, angle, contact_true = plant_obj.pressure, plant_obj.angle, plant_obj.contact_force
    integral = 0.0
    switch_at = 0 if force_mode else None
    # the columns the loop alone knows; the others follow from them after it
    columns = duties, pressures, f_ms, internals = [], [], [], []
    for i, target in enumerate(targets):
        force = 0.0
        for w in true_weights:
            force = force * angle + w
        angle_meas, force_meas = sense(angle, force + contact_true)
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
        f_ms.append(force_meas)
        internals.append(internal)
    duties, pressures, f_ms, internals = (array("d", column) for column in columns)
    # the loop's bend, contact and estimate once more, in numpy with the same operations
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        angles, trues = map(_column, _bend(np.frombuffer(pressures), bend_gain, angle_max, split))
        contacts = _column(np.frombuffer(f_ms) - np.frombuffer(internals))
    n = len(targets)
    switch_at = n if switch_at is None else switch_at
    modes = [Mode.APPROACH.value] * switch_at + [Mode.FORCE_CONTROL.value] * (n - switch_at)
    return Trace(_tick_times(n, dt), duties, pressures, angles, f_ms, internals, contacts, trues, modes)


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
    plant's own internal model, with the arithmetic of ``_grasp_lanes``.
    """
    cal = cfg.calibration
    dt = cfg.controller.period
    level_rng = random.Random(derive_seed(seed, "calibration", finger, "levels"))
    peak_duty = min(MAX_DUTY, cal.peak_pressure / cfg.plant.k_duty)
    base_levels = [peak_duty * k / cal.levels for k in range(1, cal.levels + 1)]
    hold_ticks = max(1, int(round(cal.hold_s / dt)))
    rest_ticks = max(1, int(round(cal.rest_s / dt)))
    duties = array("d")  # duty per tick, each cycle up to the peak, back down, then rest
    for _ in range(cal.cycles):
        jittered = [
            min(MAX_DUTY, max(1.0, lv + level_rng.uniform(-cal.level_jitter, cal.level_jitter)))
            for lv in base_levels
        ]
        for duty in jittered + jittered[-2::-1]:
            duties += array("d", (duty,)) * hold_ticks
        # rest-dwell sample anchors the fit near zero bend, so later runs that
        # start from rest stay inside the calibrated range
        duties += array("d", (0.0,)) * rest_ticks
    # per tick, True where its reading is a sample: each dwell's last tick, alike in every cycle
    held = [False] * (hold_ticks - 1) + [True]
    ends = (held * (2 * cal.levels - 1) + [False] * (rest_ticks - 1) + [True]) * cal.cycles
    plant_obj = _build_plant(cfg, finger, derive_seed(seed, "calibration", finger, "plant"), len(duties))
    pressures, angles, contact = _open_loop(plant_obj, duties, dt)
    readings = _senses(plant_obj, angles, contact)
    if not with_trace:
        return [Sample(*r) for r in compress(readings, ends)], None
    n = len(duties)
    # one float row (angle_meas, force_meas) per tick, not one tuple per tick
    pairs = np.fromiter(chain.from_iterable(readings), float, 2 * n).reshape(n, 2)
    del readings  # stopped at the count, unfinished: it holds its force array until freed
    samples = [Sample(*r) for r in pairs[np.flatnonzero(ends)].tolist()]
    angle_meas, f_m = pairs.T
    with np.errstate(all="ignore"):  # as Python floats reach inf and NaN, without warnings
        internal = _horner(reversed(plant_obj.internal_model.weights), angle_meas)
        internal = np.where(internal > 0.0, internal, 0.0)
        estimate = f_m - internal
    times = array("d", accumulate(repeat(dt, n - 1), initial=0.0))
    columns = map(_column, (pressures, angles, f_m, internal, estimate, contact))
    return samples, Trace(times, duties, *columns, ["calibrate"] * n)


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
    """Scale-press accuracy sweep; one row per (seed, position), seed-major.

    Each cell ramps the duty until the true force reaches the target,
    settles, then averages the estimate and the truth over a window.  The
    duty follows the true force alone, so ``_press`` steps each position's
    mechanics once, and each cell reads its own sensors over them.  A
    failing cell raises, the first in row order.
    """
    master, models = _master_and_models(cfg, seed, models)
    est = cfg.estimation
    presses = {position: _press(cfg, position) for position in dict.fromkeys(est.positions)}
    return [
        _estimation_row(cfg, models[0], derive_seed(master, "estimation-seed", s), position, presses[position])
        for s in range(est.n_seeds)
        for position in est.positions
    ]


def _press(cfg: Config, position: float) -> tuple:
    """The press/settle/measure run against the scale at ``position``, stepped
    by ``FingerPlant.step``: (angles, contacts, count, true_sum, flag).  The
    arrays are the true state each tick senses, up to the tick that ends the
    press; its last ``count`` ticks are the window, over which the true force
    sums to ``true_sum``; ``flag`` says why a press ended before its window
    filled, and is None once it filled."""
    est = cfg.estimation
    dt = cfg.controller.period
    obj = ObjectModel(position_angle=position, stiffness=est.scale_stiffness)
    plant_obj = _build_plant(cfg, 0, 0)  # its mechanics only: each cell senses through its own plant
    settle_ticks = max(1, int(round(est.settle_s / dt)))
    window_ticks = max(1, int(round(est.window_s / dt)))
    angles, contacts = array("d"), array("d")
    duty, pressed_at, count, true_sum, flag = 0.0, None, 0, 0.0, "timeout"
    plant_obj.step(duty, dt)  # in free space before the first tick; raises for a bad dt
    for i in range(int(round(est.timeout_s / dt))):
        angles.append(plant_obj.angle)
        contacts.append(plant_obj.contact_force)
        if pressed_at is None:
            if plant_obj.contact_force >= est.target:
                pressed_at = i
            elif duty >= MAX_DUTY:
                flag = "unreachable at max duty"
                break
            else:
                duty = min(MAX_DUTY, duty + est.ramp_rate * dt)
        elif i > pressed_at + settle_ticks:
            true_sum += plant_obj.contact_force
            count += 1
            if count == window_ticks:
                flag = None
                break
        plant_obj.step(duty, dt, obj)
    return np.array(angles), np.array(contacts), count, true_sum, flag


def _estimation_row(cfg: Config, model: PolynomialModel, seed: int, position: float, press: tuple):
    """One cell over its position's ``_press``: its own plant reads the
    sensors tick by tick, and the first reading out of the model's range
    raises ``contact_force``'s error."""
    angles, contacts, count, true_sum, flag = press
    plant_obj = _build_plant(cfg, 0, derive_seed(seed, "estimation", position, "plant"), len(angles))
    margin = cfg.supervisor.extrapolation_margin
    lo, hi = calibrated_range(model, margin)
    start, est_sum = len(angles) - count, 0.0
    for i, (angle_meas, force_meas) in enumerate(_senses(plant_obj, angles, contacts)):
        if angle_meas < lo or angle_meas > hi:
            raise _raised(internal_force, model, angle_meas, margin)
        if i >= start:  # contact_force(...).contact
            internal = model.predict(angle_meas)
            est_sum += force_meas - (internal if internal > 0.0 else 0.0)
    target = cfg.estimation.target
    if flag is not None:
        return EstimationRow(seed, position, target, None, None, None, flagged=flag)
    estimated, true_force = est_sum / count, true_sum / count
    return EstimationRow(seed, position, target, estimated, true_force, abs(estimated - true_force))


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
    # the first tick with i * dt >= segment_s; the list is built whole, so a
    # span too long for memory fails at once
    k = bisect_left(range(n), sc.segment_s, key=dt.__rmul__)
    targets = [sc.first_target] * k + [sc.second_target] * (n - k)
    results = []
    for s in range(sc.n_seeds):
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "step", s), n)
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
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "switching", s), len(targets))
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
    draws across force levels (common random numbers).  So do the shake
    test's seed and the plants' noise seeds, so the batch sets up each
    (object, trial) once, in one pass, as one record: its deform and break
    thresholds, its shake seed and its three unread plants, trials being
    labelled by int index.  Each of its set-point lanes, which step in
    lockstep, takes a shallow copy of its finger's plant and so reads that
    plant's one ``GaussStream``.  A failing trial raises, the first in the
    order given, as a trial-by-trial loop would, its message naming the trial.
    """
    if not trials:
        return []
    objs = {name: oc.build() for name, oc in cfg.grasp.objects.items()}
    dt = cfg.controller.period
    n = int(round(cfg.grasp.duration_s / dt))
    setups = {}  # (object, trial) -> (deform threshold, break threshold, shake seed, plants)
    for name, _, trial in trials:
        if (name, trial) in setups:
            continue
        obj, label = objs[name], ("grasp", name, trial)
        trial_rng = random.Random(derive_seed(master, *label, "thresholds"))
        deform_thr, break_thr = (
            trial_rng.gauss(mean, spread) if math.isfinite(mean) else math.inf
            for mean, spread in ((obj.deform_threshold, obj.deform_spread), (obj.break_threshold, obj.break_spread))
        )
        plants = [_build_plant(cfg, f, derive_seed(master, *label, "plant", f), n) for f in range(3)]
        setups[name, trial] = deform_thr, break_thr, derive_seed(master, *label, "shake"), plants
    targets = [t for _, setpoint, _ in trials for t in (setpoint / 2.0, setpoint / 2.0, setpoint)]
    plants = [copy.copy(p) for name, _, trial in trials for p in setups[name, trial][3]]
    lane_objs = [objs[name] for name, _, _ in trials for _ in range(3)]
    tail_from = max(0, n - int(round(cfg.grasp.settle_window_s / dt)))
    lane_models = list(models) * len(trials)
    peak, tail_sums, errors = _grasp_lanes(cfg, plants, lane_models, lane_objs, targets, n, tail_from)
    outcomes = []
    for k, (name, setpoint, trial) in enumerate(trials):
        exc = errors.get(k)
        if exc is not None:
            raise type(exc)(f"grasp of {name} at {setpoint} N, trial {trial}: {exc}") from exc
        own = slice(3 * k, 3 * k + 3)
        tail, peaks = tail_sums[own].tolist(), peak[own].tolist()
        grip = sum(tail[f] / (n - tail_from) for f in range(3))
        deform_thr, break_thr, shake_seed, _ = setups[name, trial]
        deformed = any(pk > deform_thr for pk in peaks)
        broken = any(pk > break_thr for pk in peaks)
        held = shake_test(grip, objs[name], random.Random(shake_seed))
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
    with ``jobs`` > 1 each batch holds at most 1/``jobs`` of the trials
    (rounded up), and two or more batches run on a process pool of at most
    ``jobs`` workers, never more than one per batch.  Either way the
    outcomes concatenate in task order.
    """
    master, models = _master_and_models(cfg, seed, models)
    n = cfg.grasp.n_trials
    cells = [(name, float(sp)) for name in sorted(cfg.grasp.objects) for sp in cfg.grasp.setpoints]
    trials = [(name, sp, trial) for name, sp in cells for trial in range(n)]
    run = partial(_grasp_outcomes, cfg, master, models)
    size = max(1, min(BATCH_LANES // 3, -(-len(trials) // jobs)))
    chunks = [trials[k : k + size] for k in range(0, len(trials), size)]
    if jobs > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a forking pool starts every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
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
    n = int(round(hc.duration_s / dt))
    plant_obj = _build_plant(cfg, 0, derive_seed(seed, "hardness", stiffness or "free"), n)
    model, margin = models[0], cfg.supervisor.extrapolation_margin
    duties, duty = array("d", (0.0,)) * n, 0.0  # allocated whole, so a span too long fails at once
    for i in range(n):
        duty = min(hc.max_duty, duty + hc.ramp_rate * dt)
        duties[i] = duty
    plant_obj.step(0.0, dt)  # in free space before the first tick; raises for a bad dt
    angle0, contact0 = plant_obj.angle, plant_obj.contact_force
    pressures, angles, contact = _open_loop(plant_obj, duties, dt, obj)
    # tick i senses the state the step before it left
    readings = _senses(plant_obj, np.append(angle0, angles)[:n], np.append(contact0, contact)[:n])
    f_m, internals, estimates, points = [], [], [], []
    for angle_meas, force_meas in readings:
        estimate = contact_force((angle_meas, force_meas), model, margin)
        f_m.append(force_meas)
        internals.append(estimate.internal)
        estimates.append(estimate.contact)
        if estimate.contact > hc.min_contact_force:
            points.append((estimate.contact, angle_meas))
    measured = map(partial(array, "d"), (f_m, internals, estimates))
    columns = duties, _column(pressures), _column(angles), *measured, _column(contact)
    trace = Trace(_tick_times(n, dt), *columns, ["probe"] * n)
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
