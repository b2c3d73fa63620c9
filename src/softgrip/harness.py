"""Scripted experiments on the simulated plant.

Each experiment builds its plants/controllers from a Config, steps them at the
controller period, and returns traces plus derived metrics.  Every run is
reproducible bit-exactly from (config, seed): all randomness flows through
seeds derived from the master seed and stable trial labels, so parallel and
serial execution produce identical results.

Two tick kernels step the fingers, and give the same bits:

- ``simulate`` steps a few lanes one Python call at a time (``FingerPlant``,
  ``contact_force``, ``Supervisor``).  Calibration, step, switch and
  hardness use it: they are narrow, long runs that record a trace.
- ``simulate_lanes`` steps lanes in lockstep as numpy arrays (``Lanes``),
  in batches of at most ``BATCH_LANES``.  The grasp sweep (540 lanes of 600
  ticks at the default config) and the estimation sweep (100 lanes that
  end early) use it.  Each lane still reads its sensors through its own
  ``FingerPlant.sense``, which draws the lane's noise.

Each wins where it is used.  On a 2-CPU VM (Python 3.11, numpy 2.4) the
default grasp sweep took 0.26 s batched against 0.88-0.97 s scalar, and the
estimation sweep 0.073 s against 0.167 s.  Six lanes of 7,200 ticks under a
fixed duty schedule took 0.17-0.18 s batched against 0.13 s scalar:
per-tick numpy calls cost more than a few lanes' Python calls.  Most of the
batched time is the per-lane ``FingerPlant.sense`` calls and their
``random.gauss`` draws, which keep every noise stream as it was.
``tests/test_batch.py`` checks the batch against the scalar kernel;
``BENCH_6.json`` holds the benchmark's before/after record.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import calibration as calib
from .calibration import PolynomialModel, Sample
from .config import Config
from .control import Mode, PiController, Supervisor
from .errors import OutOfRangeError, SoftgripError
from .estimation import ContactDetector, contact_force, internal_force
from .plant import FingerPlant, ObjectModel, shake_test
from .seeding import derive_seed

TRACE_HEADER = ("t", "duty", "pressure_kpa", "angle_deg", "f_m", "f_i_pred", "f_c_est", "f_c_true", "mode")


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
        *numbers, modes = vars(self).values()  # the columns in TRACE_HEADER order
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER)
            writer.writerows(zip(*(map(repr, column) for column in numbers), modes))


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


def compute_step_metrics(
    trace: Trace, target: float, t_start: float, t_end: float, band: float = 0.05
) -> StepMetrics:
    """Derive StepMetrics from a trace segment; recomputable from the CSV."""
    idx = [i for i in range(len(trace)) if t_start <= trace.t[i] < t_end]
    if not idx:
        raise ValueError("empty segment")
    lo, hi = target * (1.0 - band), target * (1.0 + band)
    from_below = trace.f_c_true[idx[0]] <= target
    settle_at = None
    in_band_from = None
    for i in idx:
        if lo <= trace.f_c_true[i] <= hi:
            if in_band_from is None:
                in_band_from = i
        else:
            in_band_from = None
    if in_band_from is not None:
        settle_at = in_band_from
    if settle_at is None:
        values = [trace.f_c_true[i] for i in idx]
        rms = _rms([trace.f_c_est[i] - target for i in idx])
        return StepMetrics(target, False, None, _overshoot(values, target, from_below), rms)
    settling_time = trace.t[settle_at] - t_start
    values = [trace.f_c_true[i] for i in idx if i <= settle_at]
    post = [i for i in idx if i >= settle_at]
    rms = _rms([trace.f_c_est[i] - target for i in post])
    return StepMetrics(target, True, settling_time, _overshoot(values, target, from_below), rms)


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
    cc = cfg.controller
    return PiController(
        kp=cc.kp, ki=cc.ki, period=cc.period, output_min=cc.output_min, output_max=cc.output_max
    )


def _build_supervisor(cfg: Config, target: float) -> Supervisor:
    sc = cfg.supervisor
    return Supervisor(
        target_force=target,
        approach_rate=sc.approach_rate,
        detector=ContactDetector(sc.contact_threshold, sc.hysteresis_ratio),
    )


# ---------------------------------------------------------------------------
# The scalar tick kernel


class Lane(NamedTuple):
    """One finger stepped by ``simulate``.

    ``policy(i, reading, estimate)`` returns tick ``i``'s duty, or None to
    end the run before the step; ``estimate`` is None when ``model`` is.
    ``record(i, duty, reading, estimate)``, if given, runs after the step
    and sees the state it left.
    """

    plant: FingerPlant
    model: PolynomialModel | None
    obj: ObjectModel | None
    duty: float  # stepped once in free space before the first tick
    policy: Callable
    record: Callable | None = None


def simulate(cfg: Config, lanes: list, n_ticks: int) -> None:
    """Run up to ``n_ticks`` control ticks of sense -> estimate -> policy ->
    step -> record, visiting the lanes in order within each tick."""
    dt = cfg.controller.period
    margin = cfg.supervisor.extrapolation_margin
    for lane in lanes:
        lane.plant.step(lane.duty, dt)
    for i in range(n_ticks):
        for plant_obj, model, obj, _, policy, record in lanes:
            reading = plant_obj.sense()
            estimate = None
            if model is not None:
                estimate = contact_force(reading, model, margin)
            duty = policy(i, reading, estimate)
            if duty is None:
                return
            plant_obj.step(duty, dt, obj)
            if record is not None:
                record(i, duty, reading, estimate)


def _trace_row(trace: Trace, plant_obj: FingerPlant, t, duty, reading, estimate, mode) -> None:
    """Append a tick's reading and estimate with the state its step left."""
    trace.append(
        t,
        duty,
        plant_obj.pressure,
        plant_obj.angle,
        reading.force_meas,
        estimate.internal,
        estimate.contact,
        plant_obj.contact_force,
        mode,
    )


# ---------------------------------------------------------------------------
# The batched tick kernel

# Lanes per batch.  Wider batches spread each numpy call over more lanes, but
# every lane keeps its FingerPlant (noise stream and sensor filter, about
# 4 kB) until its batch ends, so the sweeps run in batches of at most this
# many and memory stays flat as they grow.  The default grasp sweep (540
# lanes) took 0.50, 0.35, 0.28, 0.27 and 0.24 s in batches of 45, 90, 180, 270
# and 540 lanes (2-CPU VM, Python 3.11, numpy 2.4).
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
    scalar path.  Every other operation repeats the scalar one in the same
    order (Python's ``max(a, b)`` is ``np.where(b > a, b, a)``), so a lane
    reproduces its scalar run bit for bit.  ``group`` numbers the lanes that
    fail together, such as a grasp trial's fingers.
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
        bounds = [(-math.inf, math.inf)] * self.n  # the range internal_force checks
        for k, m in enumerate(models):
            if m.angle_min is not None and m.angle_max is not None:
                slack = self.margin * (m.angle_max - m.angle_min)
                bounds[k] = (m.angle_min - slack, m.angle_max + slack)
        self.lo, self.hi = np.array(bounds).T
        k_f = p.finger_stiffness
        self.position = np.array([o.position_angle for o in objs], dtype=float)
        self.stiffness = np.array([o.stiffness for o in objs], dtype=float)
        self.share = np.array([k_f / (k_f + o.stiffness) if o.stiffness > 0.0 else 1.0 for o in objs])
        zeros = np.zeros(self.n)
        self.pressure, self.angle, self.contact_force = zeros, zeros, zeros
        self.force_meas, self.angle_meas = np.zeros(self.n), np.zeros(self.n)
        self.duty, self.integral = zeros, zeros
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
        theta = self.bend_gain * pressure
        theta = np.where(self.angle_max < theta, self.angle_max, theta)
        if free:
            angle, force = theta, np.zeros(self.n)
        else:
            touch = theta > self.position
            angle = np.where(touch, self.position + (theta - self.position) * self.share, theta)
            force = np.where(touch, self.stiffness * (angle - self.position), 0.0)
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
    if dt <= 0.0 or dt > lanes.tau_p / 2.0:
        lanes.plants[0].step(0.0, dt)  # raises FingerPlant.step's error
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
    # built once, with the checks the scalar path makes when it builds them
    detector, ctrl = _build_supervisor(cfg, 0.0).detector, _build_controller(cfg)
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
# Calibration experiment (free-space ramp cycles -> fitted per-finger models)


@dataclass
class CalibrationResult:
    reports: list  # CalibrationReport per finger
    sample_sets: list  # list[Sample] per finger
    traces: list  # Trace per finger, or None per finger when not recorded

    def models(self) -> list:
        return [r.selected() for r in self.reports]


def calibrate_finger(cfg: Config, finger: int, seed: int, with_trace: bool = False) -> tuple:
    """One finger's staircase ramp cycles; returns (samples, trace), the
    trace None unless ``with_trace``, the only use of the lane's estimate."""
    cal = cfg.calibration
    dt = cfg.controller.period
    plant_obj = _build_plant(cfg, finger, derive_seed(seed, "calibration", finger, "plant"))
    level_rng = random.Random(derive_seed(seed, "calibration", finger, "levels"))
    peak_duty = min(100.0, cal.peak_pressure / cfg.plant.k_duty)
    base_levels = [peak_duty * k / cal.levels for k in range(1, cal.levels + 1)]
    hold_ticks = max(1, int(round(cal.hold_s / dt)))
    rest_ticks = max(1, int(round(cal.rest_s / dt)))
    schedule = []  # duty per tick
    sample_ticks = set()  # ticks whose reading ends a dwell and becomes a sample
    for _ in range(cal.cycles):
        jittered = [
            min(100.0, max(1.0, lv + level_rng.uniform(-cal.level_jitter, cal.level_jitter)))
            for lv in base_levels
        ]
        for duty in jittered + jittered[-2::-1]:  # up to the peak, back down
            schedule += [duty] * hold_ticks
            sample_ticks.add(len(schedule) - 1)
        # rest-dwell sample anchors the fit near zero bend, so later runs that
        # start from rest stay inside the calibrated range
        schedule += [0.0] * rest_ticks
        sample_ticks.add(len(schedule) - 1)
    schedule.append(None)  # ends the run after the last tick's reading
    samples: list[Sample] = []
    trace = Trace() if with_trace else None
    t = 0.0

    def staircase(i, reading, estimate):
        nonlocal t
        if trace is not None:
            # before the kernel's step: the plant still holds the state
            # schedule[i] drove, which is what this reading saw
            _trace_row(trace, plant_obj, t, schedule[i], reading, estimate, "calibrate")
            t += dt
        if i in sample_ticks:
            samples.append(Sample(reading.angle_meas, reading.force_meas))
        return schedule[i + 1]

    model = plant_obj.internal_model if with_trace else None
    simulate(cfg, [Lane(plant_obj, model, None, schedule[0], staircase)], len(schedule) - 1)
    return samples, trace


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
    return run_calibration_experiment(cfg, seed).models()


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
        at_max = pressing & ~reached & (lanes.duty >= 100.0)
        ramp = lanes.duty + est.ramp_rate * dt
        ramping = pressing & ~reached & ~at_max
        lanes.duty = np.where(ramping, np.where(ramp < 100.0, ramp, 100.0), lanes.duty)
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
    results = []
    for s in range(sc.n_seeds):
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "step", s))
        ctrl = _build_controller(cfg)
        trace = Trace()
        duty = sc.warm_start_duty
        if duty > 0.0:
            plant_obj.pressure = cfg.plant.k_duty * duty

        def pi(i, reading, estimate):
            nonlocal duty
            target = sc.first_target if i * dt < sc.segment_s else sc.second_target
            duty = ctrl.step(target, estimate.contact, duty)
            return duty

        def record(i, duty, reading, estimate):
            _trace_row(trace, plant_obj, i * dt, duty, reading, estimate, Mode.FORCE_CONTROL.value)

        simulate(cfg, [Lane(plant_obj, model, obj, duty, pi, record)], int(round(duration / dt)))
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
    dt = cfg.controller.period
    results = []
    for s in range(sw.n_seeds):
        plant_obj = _build_plant(cfg, 0, derive_seed(master, "switching", s))
        supervisor = _build_supervisor(cfg, sw.target)
        ctrl = _build_controller(cfg)
        trace = Trace()

        def record(i, duty, reading, estimate):
            _trace_row(trace, plant_obj, i * dt, duty, reading, estimate, supervisor.mode.value)

        def supervise(i, reading, estimate):
            return supervisor.step(ctrl, estimate, dt)

        simulate(cfg, [Lane(plant_obj, model, obj, 0.0, supervise, record)], int(round(sw.duration_s / dt)))
        if supervisor.switch_time is None:
            metrics = compute_step_metrics(trace, sw.target, 0.0, sw.duration_s)
            results.append(SwitchingResult(trace, metrics, None, None))
            continue
        t_switch = supervisor.switch_time
        metrics = compute_step_metrics(trace, sw.target, t_switch, sw.duration_s)
        duty_band = None
        if metrics.settled:
            post = [
                trace.duty[i]
                for i in range(len(trace))
                if trace.t[i] >= t_switch + metrics.settling_time
            ]
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
    draws across force levels (common random numbers).  A failing trial
    raises, the first in the order given, as a trial-by-trial loop would.
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
    plants = [
        _build_plant(cfg, f, derive_seed(master, "grasp", name, trial, "plant", f))
        for name, trial, f in fingers
    ]
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
    classification (guard: no contact, nothing to classify).
    """
    hc = cfg.hardness
    dt = cfg.controller.period
    obj = (
        ObjectModel(position_angle=hc.position_angle, stiffness=stiffness)
        if stiffness is not None
        else None
    )
    plant_obj = _build_plant(cfg, 0, derive_seed(seed, "hardness", stiffness or "free"))
    duty = 0.0
    points = []
    trace = Trace()

    def ramp(i, reading, estimate):
        nonlocal duty
        if estimate.contact > hc.min_contact_force:
            points.append((estimate.contact, reading.angle_meas))
        duty = min(hc.max_duty, duty + hc.ramp_rate * dt)
        return duty

    def record(i, duty, reading, estimate):
        _trace_row(trace, plant_obj, i * dt, duty, reading, estimate, "probe")

    simulate(cfg, [Lane(plant_obj, models[0], obj, duty, ramp, record)], int(round(hc.duration_s / dt)))
    if len(points) < 20:
        return HardnessResult(classification=None, slope_deg_per_n=None, trace=trace)
    # least-squares slope of angle against estimated force
    mf = sum(p[0] for p in points) / len(points)
    ma = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mf) ** 2 for p in points)
    sxy = sum((p[0] - mf) * (p[1] - ma) for p in points)
    slope = sxy / sxx
    classification = "stiff" if slope < hc.slope_threshold else "soft"
    return HardnessResult(classification=classification, slope_deg_per_n=slope, trace=trace)


def run_hardness_probe(cfg: Config, seed: int | None = None, models=None) -> dict:
    """Probe the stiff and soft reference objects; returns both results."""
    master, models = _master_and_models(cfg, seed, models)
    return {
        "stiff": probe_hardness(cfg, cfg.hardness.stiff_stiffness, master, models),
        "soft": probe_hardness(cfg, cfg.hardness.soft_stiffness, master, models),
    }
