"""Scripted experiments on the simulated plant.

Each experiment builds its plants/controllers from a Config, steps them at the
controller period, and returns traces plus derived metrics.  Every run is
reproducible bit-exactly from (config, seed): all randomness flows through
seeds derived from the master seed and stable trial labels, so parallel and
serial execution produce identical results.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import calibration as calib
from .calibration import PolynomialModel, Sample
from .config import Config
from .control import Mode, PiController, Supervisor
from .errors import OutOfRangeError
from .estimation import ContactDetector, contact_force
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

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trace":
        trace = cls()
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_HEADER:
                raise ValueError(f"unexpected trace header: {header}")
            for row in reader:
                trace.append(*(float(v) for v in row[:8]), row[8])
        return trace


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

    @property
    def success(self) -> bool:
        return not (self.dropped or self.deformed or self.broken)


def _overshoot(values: list, target: float, from_below: bool) -> float:
    """Excursion past the target in the direction of travel, as a fraction."""
    if from_below:
        return max(0.0, max(values) - target) / target
    return max(0.0, target - min(values)) / target


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
        rms = math.sqrt(sum((trace.f_c_est[i] - target) ** 2 for i in idx) / len(idx))
        return StepMetrics(target, False, None, _overshoot(values, target, from_below), rms)
    settling_time = trace.t[settle_at] - t_start
    values = [trace.f_c_true[i] for i in idx if i <= settle_at]
    post = [i for i in idx if i >= settle_at]
    rms = math.sqrt(sum((trace.f_c_est[i] - target) ** 2 for i in post) / len(post))
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
# The tick kernel


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


def _estimation_cell(cfg: Config, model: PolynomialModel, seed: int, position: float) -> EstimationRow:
    est = cfg.estimation
    dt = cfg.controller.period
    obj = ObjectModel(position_angle=position, stiffness=est.scale_stiffness)
    plant_obj = _build_plant(cfg, 0, derive_seed(seed, "estimation", position, "plant"))
    settle_ticks = max(1, int(round(est.settle_s / dt)))
    window_ticks = max(1, int(round(est.window_s / dt)))
    duty = 0.0
    pressed_at = None  # tick the target was reached; settle, then measure a window
    est_acc, true_acc, count = 0.0, 0.0, 0
    flagged = None

    def press_settle_measure(i, reading, estimate):
        nonlocal duty, pressed_at, est_acc, true_acc, count, flagged
        if pressed_at is None:
            if plant_obj.contact_force >= est.target:
                pressed_at = i
            elif duty >= 100.0:
                flagged = "unreachable at max duty"
                return None
            else:
                duty = min(100.0, duty + est.ramp_rate * dt)
        elif i > pressed_at + settle_ticks:
            est_acc += estimate.contact
            true_acc += plant_obj.contact_force
            count += 1
            if count == window_ticks:
                return None
        return duty

    lane = Lane(plant_obj, model, obj, duty, press_settle_measure)
    simulate(cfg, [lane], int(round(est.timeout_s / dt)))
    if count == 0:
        return EstimationRow(seed, position, est.target, None, None, None, flagged=flagged or "timeout")
    estimated = est_acc / count
    true_force = true_acc / count
    return EstimationRow(
        seed, position, est.target, estimated, true_force, abs(estimated - true_force)
    )


def run_estimation_accuracy(cfg: Config, seed: int | None = None, models=None) -> list:
    """Scale-press accuracy sweep over the position grid; one row per (seed, position)."""
    master, models = _master_and_models(cfg, seed, models)
    model = models[0]
    rows = []
    for s in range(cfg.estimation.n_seeds):
        for position in cfg.estimation.positions:
            rows.append(_estimation_cell(cfg, model, derive_seed(master, "estimation-seed", s), position))
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


def grasp_trial(
    cfg: Config, object_name: str, setpoint: float, trial: int, master: int, models: list
) -> GraspOutcome:
    """One three-finger grasp: approach, regulate, then judge the outcome.

    Finger targets are (F/2, F/2, F) so the paired fingers balance the
    opposable one exactly.  Failure thresholds draw from a trial RNG keyed by
    (master, object, trial) -- deliberately not by set-point, so sweeps share
    draws across force levels (common random numbers).
    """
    oc = cfg.grasp.objects[object_name]
    obj = oc.build()
    trial_rng = random.Random(derive_seed(master, "grasp", object_name, trial, "thresholds"))
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
    targets = [setpoint / 2.0, setpoint / 2.0, setpoint]
    dt = cfg.controller.period
    n = int(round(cfg.grasp.duration_s / dt))
    tail_from = max(0, n - int(round(cfg.grasp.settle_window_s / dt)))
    peak = [0.0, 0.0, 0.0]
    tail_sums = [0.0, 0.0, 0.0]

    def finger_lane(f: int) -> Lane:
        p = _build_plant(cfg, f, derive_seed(master, "grasp", object_name, trial, "plant", f))
        sup, ctrl = _build_supervisor(cfg, targets[f]), _build_controller(cfg)

        def supervise(i, reading, estimate):
            return sup.step(ctrl, estimate, dt)

        def record(i, duty, reading, estimate):
            if p.contact_force > peak[f]:
                peak[f] = p.contact_force
            if i >= tail_from:
                tail_sums[f] += p.contact_force

        return Lane(p, models[f], obj, 0.0, supervise, record)

    try:
        simulate(cfg, [finger_lane(f) for f in range(3)], n)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"grasp of {object_name} at {setpoint} N, trial {trial}: {exc}") from exc
    grip = sum(tail_sums[f] / (n - tail_from) for f in range(3))
    deformed = any(pk > deform_thr for pk in peak)
    broken = any(pk > break_thr for pk in peak)
    held = shake_test(grip, obj, random.Random(derive_seed(master, "grasp", object_name, trial, "shake")))
    return GraspOutcome(dropped=not held, deformed=deformed, broken=broken)


def run_grasp_sweep(cfg: Config, seed: int | None = None, jobs: int = 1, models=None) -> SweepTable:
    """Outcome percentages per (object, set-point) over n_trials grasps each."""
    master, models = _master_and_models(cfg, seed, models)
    n = cfg.grasp.n_trials
    cells = [(name, float(sp)) for name in sorted(cfg.grasp.objects) for sp in cfg.grasp.setpoints]
    tasks = [(cfg, name, sp, trial, master, models) for name, sp in cells for trial in range(n)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(grasp_trial, *zip(*tasks), chunksize=4))
    else:
        outcomes = [grasp_trial(*task) for task in tasks]
    rows = []
    for k, (name, sp) in enumerate(cells):
        cell = outcomes[k * n : (k + 1) * n]  # pool.map keeps task order
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
