"""Declarative configuration for the plant, controller, and experiments.

A config file is a JSON object; any subset of keys may be given and the rest
fall back to defaults (so an empty file is the default config).  Unknown keys
are rejected with their full path, and ``validate`` returns per-field
diagnostics for out-of-range values.

Each bounded field declares its bound beside its default (the ``_bounded``
metadata below); ``validate`` walks the tree once, checking every number and
list against that bound and rejecting NaN and inf (the failure thresholds admit
inf), then applies the few rules that span fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import calibration, control, estimation, plant
from .errors import ConfigError


@dataclass(frozen=True)
class _Bound:
    """A field's admissible values; ``test`` is written so that NaN fails it, and takes a list whole."""

    rule: str
    test: Callable[[float | list], bool]
    admits_inf: bool = False
    in_ticks: bool = False  # test the span in control ticks, value / controller.period

    def admits(self, value, period: float | None) -> bool:
        """``period`` None: controller.period is out of range and reported on its own."""
        if self.in_ticks:
            return period is None or self.test(value / period)
        return self.test(value)


_ANY = _Bound("", lambda v: True)  # unbounded numbers need only be finite
_POSITIVE = _Bound("must be > 0", lambda v: v > 0)
_NON_NEGATIVE = _Bound("must be >= 0", lambda v: v >= 0)
_UNIT_OPEN_BELOW = _Bound("must be in (0, 1]", lambda v: 0 < v <= 1)
_AT_LEAST_ONE = _Bound("must be >= 1", lambda v: v >= 1)
# the squares of noisier force readings overflow calibration's sums, and the
# powers of noisier angles its fit
_NOISE = _Bound("must be in [0, 1e100]", lambda v: 0 <= v <= 1e100)
# calibration drives duties of several percent: k_duty * duty must stay finite,
# or the pressure recurrence computes inf - inf
_GAIN = _Bound("must be in (0, 1e100]", lambda v: 0 < v <= 1e100)
# one calibrated span past each end; margin * span must not overflow
_MARGIN = _Bound("must be in [0, 1]", lambda v: 0 <= v <= 1)
# the step and switch runs divide their overshoot by the target, and the
# contact force stays within 1e100 N (``validate``), so the fraction stays finite
_TARGET = _Bound("must be >= 1e-100", lambda v: v >= 1e-100)
_NONEMPTY = _Bound("must be nonempty", lambda v: len(v) > 0)
_THREE = _Bound("must list exactly 3 factors", lambda v: len(v) == 3)
_DUTY = _Bound(f"must be <= {plant.MAX_DUTY:g} (the PWM duty ceiling)", lambda v: v <= plant.MAX_DUTY)
# a failure threshold of inf means the object never deforms or breaks
_THRESHOLD = _Bound("must be > 0", lambda v: v > 0, admits_inf=True)
# runs count round(span / period) ticks: 0 ticks leaves a window empty, and a
# count past sys.maxsize (inf at 1e308 / period) cannot size a list or an array
_ONE_TICK = _Bound(
    f"must be > 0 and span from one to {sys.maxsize} (sys.maxsize) control ticks",
    lambda t: 0.5 < t <= sys.maxsize,
    in_ticks=True,
)
# the step run counts round(2 * segment_s / period) ticks and starts its second
# segment at segment_s; from 1.5 ticks on, that segment always holds a tick
_STEP_SEGMENT = _Bound(
    f"must span 1.5 (a tick in each step segment) to {sys.maxsize // 2} (sys.maxsize / 2) control ticks",
    lambda t: 1.5 <= t and 2.0 * t <= sys.maxsize,
    in_ticks=True,
)


def _bounded(default, bound: _Bound):
    """A field with its bound beside its default; a list's default is a factory."""
    if callable(default):
        return field(default_factory=default, metadata={"bound": bound})
    return field(default=default, metadata={"bound": bound})


@dataclass
class PlantConfig:
    """The simulated finger (``plant.FingerPlant``): the pressure lag ``tau_p``
    (s), ``k_duty`` (kPa per duty-%), ``bend_gain`` (deg/kPa) up to
    ``angle_max`` (deg), ``finger_stiffness`` (N/deg), the force and angle
    noise sigmas (N, deg), the force filter's ``filter_alpha``, the
    internal-force polynomial's ``internal_weights`` (N per deg^d) and each
    finger's scale of them."""

    tau_p: float = _bounded(plant.DEFAULT_TAU_P, _POSITIVE)
    k_duty: float = _bounded(plant.DEFAULT_K_DUTY, _GAIN)
    bend_gain: float = _bounded(plant.DEFAULT_BEND_GAIN, _POSITIVE)
    angle_max: float = _bounded(plant.DEFAULT_ANGLE_MAX, _POSITIVE)
    finger_stiffness: float = _bounded(plant.DEFAULT_FINGER_STIFFNESS, _POSITIVE)
    noise_sigma: float = _bounded(plant.DEFAULT_NOISE_SIGMA, _NOISE)
    angle_noise_sigma: float = _bounded(plant.DEFAULT_ANGLE_NOISE_SIGMA, _NOISE)
    filter_alpha: float = _bounded(plant.DEFAULT_FILTER_ALPHA, _UNIT_OPEN_BELOW)
    internal_weights: list = _bounded(lambda: list(plant.DEFAULT_INTERNAL_WEIGHTS), _NONEMPTY)
    finger_scales: list = _bounded(lambda: list(plant.DEFAULT_FINGER_SCALES), _THREE)


@dataclass
class ControllerConfig:
    """The PI force controller (``control.PiController``): ``kp`` (duty-% per
    N), ``ki`` (duty-% per N s), the control ``period`` (s) and the duty
    limits (duty-%)."""

    kp: float = control.DEFAULT_KP
    ki: float = control.DEFAULT_KI
    period: float = _bounded(control.DEFAULT_PERIOD, _POSITIVE)
    output_min: float = control.DEFAULT_OUTPUT_MIN
    output_max: float = _bounded(plant.MAX_DUTY, _DUTY)


@dataclass
class SupervisorConfig:
    """The approach and the estimator's guards: the approach ramp (duty-%/s),
    the estimated force (N) that ends it in force control, and the
    extrapolation margin past the calibrated angles (a fraction of their
    span)."""

    approach_rate: float = _bounded(control.DEFAULT_APPROACH_RATE, _POSITIVE)
    contact_threshold: float = _bounded(estimation.DEFAULT_CONTACT_THRESHOLD, _POSITIVE)
    extrapolation_margin: float = _bounded(estimation.DEFAULT_EXTRAPOLATION_MARGIN, _MARGIN)


@dataclass
class ObjectConfig:
    """An object the finger presses on: where it sits and how it yields."""

    position_angle: float = _bounded(10.0, _NON_NEGATIVE)
    stiffness: float = _bounded(0.1, _NON_NEGATIVE)

    def build(self) -> plant.ObjectModel:
        return plant.ObjectModel(**vars(self))


@dataclass
class GraspObjectConfig(ObjectConfig):
    """An object that also draws deform, break and hold failures (defaults: ``plant.ObjectModel``'s)."""

    deform_threshold: float = _bounded(plant.ObjectModel.deform_threshold, _THRESHOLD)
    deform_spread: float = _bounded(plant.ObjectModel.deform_spread, _NON_NEGATIVE)
    break_threshold: float = _bounded(plant.ObjectModel.break_threshold, _THRESHOLD)
    break_spread: float = _bounded(plant.ObjectModel.break_spread, _NON_NEGATIVE)
    hold_requirement: float = _bounded(plant.ObjectModel.hold_requirement, _NON_NEGATIVE)
    hold_spread: float = _bounded(plant.ObjectModel.hold_spread, _NON_NEGATIVE)


@dataclass
class CalibrationConfig:
    """The free-space calibration: ``cycles`` staircases of ``levels`` duty
    levels up to ``peak_pressure`` (kPa) and back, each held ``hold_s`` (s)
    and drawn per cycle within ``level_jitter`` (duty-%), then a rest of
    ``rest_s`` (s); polynomials of degree 0 to ``max_degree`` are fitted and
    one selected by BIC."""

    cycles: int = _bounded(35, _AT_LEAST_ONE)
    levels: int = 10  # must exceed max_degree
    hold_s: float = _bounded(0.3, _ONE_TICK)
    rest_s: float = _bounded(0.2, _ONE_TICK)
    level_jitter: float = 5.0  # duty-%, uniform per cycle
    peak_pressure: float = _bounded(60.0, _POSITIVE)  # kPa, top of each ramp cycle
    max_degree: int = _bounded(calibration.DEFAULT_MAX_DEGREE, _NON_NEGATIVE)


@dataclass
class StepConfig:
    """The step response against ``object``: ``n_seeds`` runs from a warm
    start at ``warm_start_duty`` (duty-%), each holding ``first_target``,
    then ``second_target`` (N), for ``segment_s`` (s) each."""

    object: ObjectConfig = field(
        default_factory=lambda: ObjectConfig(position_angle=6.0, stiffness=1.4)
    )
    warm_start_duty: float = _bounded(8.0, _DUTY)
    first_target: float = _bounded(3.0, _TARGET)
    second_target: float = _bounded(2.0, _TARGET)
    segment_s: float = _bounded(60.0, _STEP_SEGMENT)
    n_seeds: int = _bounded(5, _AT_LEAST_ONE)


@dataclass
class SwitchingConfig:
    """The approach-to-force-control switch against ``object``: ``n_seeds``
    runs of ``duration_s`` (s) from rest, at the set-point ``target`` (N)."""

    object: ObjectConfig = field(
        default_factory=lambda: ObjectConfig(position_angle=6.0, stiffness=0.28)
    )
    target: float = _bounded(2.5, _TARGET)
    duration_s: float = _bounded(15.0, _ONE_TICK)
    n_seeds: int = _bounded(10, _AT_LEAST_ONE)


@dataclass
class EstimationConfig:
    """The estimation accuracy sweep on a scale of ``scale_stiffness`` (N/deg)
    at each of ``positions`` (deg), ``n_seeds`` plants each: the duty ramps
    at ``ramp_rate`` (duty-%/s) until the true force reaches ``target`` (N),
    settles for ``settle_s`` (s), then averages over ``window_s`` (s), all
    within ``timeout_s`` (s)."""

    positions: list = _bounded(lambda: [15.0, 22.0, 29.0, 36.0, 43.0], _NONEMPTY)
    scale_stiffness: float = _bounded(0.5, _POSITIVE)
    target: float = _bounded(2.0, _POSITIVE)  # N, the ~200 g scale target
    ramp_rate: float = _bounded(8.0, _POSITIVE)  # duty-%/s while pressing
    settle_s: float = _bounded(1.0, _ONE_TICK)
    window_s: float = _bounded(0.5, _ONE_TICK)
    timeout_s: float = _bounded(30.0, _ONE_TICK)
    n_seeds: int = _bounded(20, _AT_LEAST_ONE)


@dataclass
class GraspConfig:
    """The grasp sweep: each of ``objects`` held by three fingers at each of
    ``setpoints`` (N) for ``n_trials`` trials of ``duration_s`` (s), the grip
    judged over the last ``settle_window_s`` (s)."""

    setpoints: list = _bounded(lambda: [0.5, 1.0, 1.5, 2.0, 3.0, 4.0], _NONEMPTY)
    n_trials: int = _bounded(10, _AT_LEAST_ONE)
    duration_s: float = _bounded(10.0, _ONE_TICK)
    settle_window_s: float = _bounded(0.5, _ONE_TICK)
    objects: dict = field(
        default_factory=lambda: {
            "plastic_cup": GraspObjectConfig(
                position_angle=10.0,
                stiffness=0.08,
                deform_threshold=1.2,
                deform_spread=0.25,
                hold_requirement=1.1,
                hold_spread=0.35,
            ),
            "paper_cup": GraspObjectConfig(
                position_angle=10.0,
                stiffness=0.12,
                deform_threshold=1.9,
                deform_spread=0.30,
                hold_requirement=2.2,
                hold_spread=0.60,
            ),
            "eggshell": GraspObjectConfig(
                position_angle=10.0,
                stiffness=0.5,
                hold_requirement=0.8,
                hold_spread=0.25,
            ),
        }
    )


@dataclass
class HardnessConfig:
    """The hardness probe: an open-loop duty ramp of ``ramp_rate`` (duty-%/s)
    up to ``max_duty`` (duty-%) for ``duration_s`` (s) into an object at
    ``position_angle`` (deg) of ``stiff_stiffness`` or ``soft_stiffness``
    (N/deg); the angle-against-force slope of the estimates above
    ``min_contact_force`` (N) is stiff below ``slope_threshold`` (deg/N)."""

    position_angle: float = 48.0  # contact at 40% duty with the default geometry
    stiff_stiffness: float = _bounded(0.5, _POSITIVE)
    soft_stiffness: float = _bounded(0.03, _POSITIVE)
    ramp_rate: float = _bounded(15.0, _NON_NEGATIVE)  # a falling duty never presses, and overflows to -inf
    max_duty: float = _bounded(plant.MAX_DUTY, _DUTY)
    duration_s: float = _bounded(8.0, _ONE_TICK)
    min_contact_force: float = _bounded(0.25, _NON_NEGATIVE)
    slope_threshold: float = _bounded(10.0, _POSITIVE)  # deg/N separating stiff from soft


@dataclass
class Config:
    """The whole run: the master ``seed`` every run derives its seeds from,
    the plant, controller, supervisor and calibration, and one section per
    experiment."""

    seed: int = 12345
    plant: PlantConfig = field(default_factory=PlantConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    step: StepConfig = field(default_factory=StepConfig)
    switching: SwitchingConfig = field(default_factory=SwitchingConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    grasp: GraspConfig = field(default_factory=GraspConfig)
    hardness: HardnessConfig = field(default_factory=HardnessConfig)


def default_config() -> Config:
    return Config()


_NUMERIC = (int, float)


def _merge(obj, data: dict, path: str):
    """Overlay a dict onto a dataclass tree, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    names = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config key: {where}")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current):
            _merge(current, value, where)
        elif key == "objects":
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            merged = dict(current)
            for name, spec in value.items():
                base = merged.get(name, GraspObjectConfig())
                merged[name] = _merge(dataclasses.replace(base), spec, f"{where}.{name}")
            setattr(obj, key, merged)
        elif isinstance(current, list):
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list")
            for k, item in enumerate(value):
                # every config list holds numbers; ints stay ints (seeds hash them as given)
                finite = isinstance(item, _NUMERIC) and abs(item) <= sys.float_info.max
                if isinstance(item, bool) or not finite:
                    raise ConfigError(f"{where}[{k}]: expected a finite number")
            setattr(obj, key, list(value))
        elif isinstance(value, (dict, list)):
            raise ConfigError(f"{where}: unexpected value type {type(value).__name__}")
        elif isinstance(current, int):
            # an integral float such as 2.0 loads as 2, so seeds hash the same
            integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
            if isinstance(value, bool) or not integral:
                raise ConfigError(f"{where}: expected an integer")
            setattr(obj, key, int(value))
        else:  # every other field is a float
            if isinstance(value, str) and value in ("inf", "Infinity"):
                setattr(obj, key, math.inf)
            elif isinstance(value, bool) or not isinstance(value, _NUMERIC):
                raise ConfigError(f"{where}: expected a number")
            elif isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ConfigError(f"{where}: expected a finite number")
            else:
                setattr(obj, key, float(value))
    return obj


def config_from_dict(data: dict) -> Config:
    return _merge(default_config(), data, "")


def load_config(path: str | Path) -> Config:
    """Parse a JSON config file over the defaults; validation is separate.

    A file that cannot be read, or is not UTF-8 JSON that Python can hold
    (an integer literal over 4,300 digits, nesting past the recursion
    limit), raises ConfigError naming the file.
    """
    p = Path(path)
    try:
        with open(p, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config file ({exc.strerror or exc})") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    return config_from_dict(data)


def config_to_dict(cfg: Config) -> dict:
    """The config as JSON values, by ``dataclasses.asdict``: each section a
    dict, and an infinite float (a failure threshold admits one) the string
    ``"inf"``, which ``config_from_dict`` reads back.  List items are finite
    numbers, as ``config_from_dict`` admits no other."""
    return dataclasses.asdict(cfg, dict_factory=_json_fields)


def _json_fields(fields: list) -> dict:
    return {k: "inf" if isinstance(v, float) and math.isinf(v) else v for k, v in fields}


def _field_errors(node, path: str, period: float | None) -> list[str]:
    """Check each number and list in a dataclass tree against the bound beside its default."""
    errs = []
    for f in dataclasses.fields(node):
        where, value = path + f.name, getattr(node, f.name)
        bound = f.metadata.get("bound", _ANY)
        if dataclasses.is_dataclass(value):
            errs += _field_errors(value, where + ".", period)
        elif isinstance(value, dict):  # grasp.objects
            for name, obj in value.items():
                errs += _field_errors(obj, f"{where}.{name}.", period)
        elif isinstance(value, float) and not (math.isfinite(value) or bound.admits_inf):
            errs.append(f"{where}: must be finite")
        elif not bound.admits(value, period):
            errs.append(f"{where}: {bound.rule}")
    return errs


def _presses(cfg: Config) -> list:
    """(field, stiffness, positions) of every object a run presses the finger on."""
    est, hc = cfg.estimation, cfg.hardness
    objs = {"step.object": cfg.step.object, "switching.object": cfg.switching.object}
    objs.update((f"grasp.objects.{name}", oc) for name, oc in cfg.grasp.objects.items())
    return [(f"{where}.stiffness", o.stiffness, [o.position_angle]) for where, o in objs.items()] + [
        ("estimation.scale_stiffness", est.scale_stiffness, est.positions),
        ("hardness.stiff_stiffness", hc.stiff_stiffness, [hc.position_angle]),
        ("hardness.soft_stiffness", hc.soft_stiffness, [hc.position_angle]),
    ]


def validate(cfg: Config) -> list[str]:
    """Check every field's bound, then the five rules that span fields: the
    tick against plant.tau_p, the duty range, the calibration levels against
    the fit degree, the internal force and the contact force.  Returns a list
    of 'path: problem' strings."""
    pc, cc, cal = cfg.plant, cfg.controller, cfg.calibration
    errs = _field_errors(cfg, "", cc.period if 0.0 < cc.period < math.inf else None)
    # a NaN leaf is already reported above; these comparisons skip it
    if pc.tau_p > 0.0 and cc.period > pc.tau_p / 2.0:
        errs.append("controller.period: must be <= plant.tau_p / 2 (explicit integration)")
    if cc.output_min >= cc.output_max:
        errs.append("controller.output_min: must be < controller.output_max")
    if cal.levels <= cal.max_degree:
        errs.append("calibration.levels: must exceed calibration.max_degree")
    # calibration squares the forces, and its trace predicts them at each angle read;
    # Horner on |weights| bounds them over readings within angle_max + 9 sigma
    # (a GaussStream value is below 8.6 in magnitude)
    scale, force = max(map(abs, pc.finger_scales), default=0), 0.0
    read = pc.angle_max + 9.0 * pc.angle_noise_sigma
    for w in reversed(pc.internal_weights):
        force = force * read + abs(w) * scale
    if math.isfinite(read) and force > 1e100:
        errs.append("plant.internal_weights: must keep the internal force within 1e100 N at any angle the sensor reads")
    # the contact force s * (angle - position): s in series with the finger's k_f,
    # over the largest bend past the position, as no run drives a duty past MAX_DUTY.
    # share * s <= s, so only the last product can overflow, and to inf, which fails
    k_f, reach = pc.finger_stiffness, min(pc.angle_max, pc.bend_gain * pc.k_duty * plant.MAX_DUTY)
    for where, s, positions in _presses(cfg):
        bend = reach - min(positions, default=reach)
        if 0.0 < s < math.inf and 0.0 < k_f < math.inf:
            if not math.isfinite(k_f + s) or k_f / (k_f + s) * s * bend > 1e100:
                errs.append(f"{where}: must keep the contact force against plant.finger_stiffness within 1e100 N")
    return errs
