"""Declarative configuration for the plant, controller, and experiments.

A config file is a JSON object; any subset of keys may be given and the rest
fall back to defaults (so an empty file is the default config).  Unknown keys
are rejected with their full path, and ``validate`` returns per-field
diagnostics for out-of-range values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import control, estimation, plant
from .errors import ConfigError


@dataclass
class PlantConfig:
    tau_p: float = plant.DEFAULT_TAU_P
    k_duty: float = plant.DEFAULT_K_DUTY
    bend_gain: float = plant.DEFAULT_BEND_GAIN
    angle_max: float = plant.DEFAULT_ANGLE_MAX
    finger_stiffness: float = plant.DEFAULT_FINGER_STIFFNESS
    noise_sigma: float = plant.DEFAULT_NOISE_SIGMA
    angle_noise_sigma: float = plant.DEFAULT_ANGLE_NOISE_SIGMA
    filter_alpha: float = plant.DEFAULT_FILTER_ALPHA
    internal_weights: list = field(default_factory=lambda: list(plant.DEFAULT_INTERNAL_WEIGHTS))
    finger_scales: list = field(default_factory=lambda: list(plant.DEFAULT_FINGER_SCALES))


@dataclass
class ControllerConfig:
    kp: float = control.DEFAULT_KP
    ki: float = control.DEFAULT_KI
    period: float = control.DEFAULT_PERIOD
    output_min: float = 0.0
    output_max: float = 100.0


@dataclass
class SupervisorConfig:
    approach_rate: float = control.DEFAULT_APPROACH_RATE
    contact_threshold: float = estimation.DEFAULT_CONTACT_THRESHOLD
    hysteresis_ratio: float = estimation.DEFAULT_HYSTERESIS_RATIO
    extrapolation_margin: float = estimation.DEFAULT_EXTRAPOLATION_MARGIN


@dataclass
class ObjectConfig:
    position_angle: float = 10.0
    stiffness: float = 0.1
    deform_threshold: float = math.inf
    deform_spread: float = 0.0
    break_threshold: float = math.inf
    break_spread: float = 0.0
    hold_requirement: float = 0.0
    hold_spread: float = 0.0

    def build(self) -> plant.ObjectModel:
        return plant.ObjectModel(
            position_angle=self.position_angle,
            stiffness=self.stiffness,
            deform_threshold=self.deform_threshold,
            deform_spread=self.deform_spread,
            break_threshold=self.break_threshold,
            break_spread=self.break_spread,
            hold_requirement=self.hold_requirement,
            hold_spread=self.hold_spread,
        )


@dataclass
class CalibrationConfig:
    cycles: int = 35
    levels: int = 10
    hold_s: float = 0.3
    rest_s: float = 0.2
    level_jitter: float = 5.0  # duty-%, uniform per cycle
    peak_pressure: float = 60.0  # kPa, top of each ramp cycle
    max_degree: int = 6


@dataclass
class StepConfig:
    object: ObjectConfig = field(
        default_factory=lambda: ObjectConfig(position_angle=6.0, stiffness=1.4)
    )
    warm_start_duty: float = 8.0
    first_target: float = 3.0
    second_target: float = 2.0
    segment_s: float = 60.0
    n_seeds: int = 5


@dataclass
class SwitchingConfig:
    object: ObjectConfig = field(
        default_factory=lambda: ObjectConfig(position_angle=6.0, stiffness=0.28)
    )
    target: float = 2.5
    duration_s: float = 15.0
    n_seeds: int = 10


@dataclass
class EstimationConfig:
    positions: list = field(default_factory=lambda: [15.0, 22.0, 29.0, 36.0, 43.0])
    scale_stiffness: float = 0.5
    target: float = 2.0  # N, the ~200 g scale target
    ramp_rate: float = 8.0  # duty-%/s while pressing
    settle_s: float = 1.0
    window_s: float = 0.5
    timeout_s: float = 30.0
    n_seeds: int = 20


@dataclass
class GraspConfig:
    setpoints: list = field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    n_trials: int = 10
    duration_s: float = 10.0
    settle_window_s: float = 0.5
    objects: dict = field(
        default_factory=lambda: {
            "plastic_cup": ObjectConfig(
                position_angle=10.0,
                stiffness=0.08,
                deform_threshold=1.2,
                deform_spread=0.25,
                hold_requirement=1.1,
                hold_spread=0.35,
            ),
            "paper_cup": ObjectConfig(
                position_angle=10.0,
                stiffness=0.12,
                deform_threshold=1.9,
                deform_spread=0.30,
                hold_requirement=2.2,
                hold_spread=0.60,
            ),
            "eggshell": ObjectConfig(
                position_angle=10.0,
                stiffness=0.5,
                hold_requirement=0.8,
                hold_spread=0.25,
            ),
        }
    )


@dataclass
class HardnessConfig:
    position_angle: float = 48.0  # contact at 40% duty with the default geometry
    stiff_stiffness: float = 0.5
    soft_stiffness: float = 0.03
    ramp_rate: float = 15.0
    max_duty: float = 100.0
    duration_s: float = 8.0
    min_contact_force: float = 0.25
    slope_threshold: float = 10.0  # deg/N separating stiff from soft


@dataclass
class Config:
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
                base = merged.get(name, ObjectConfig())
                obj_cfg = dataclasses.replace(base) if isinstance(base, ObjectConfig) else ObjectConfig()
                _merge(obj_cfg, spec, f"{where}.{name}")
                merged[name] = obj_cfg
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
        elif isinstance(current, bool) or isinstance(value, (dict, list)):
            raise ConfigError(f"{where}: unexpected value type {type(value).__name__}")
        elif isinstance(current, int) and not isinstance(current, bool):
            if isinstance(value, bool) or not isinstance(value, _NUMERIC):
                raise ConfigError(f"{where}: expected a number")
            setattr(obj, key, int(value))
        elif isinstance(current, float):
            if isinstance(value, str) and value in ("inf", "Infinity"):
                setattr(obj, key, math.inf)
            elif isinstance(value, bool) or not isinstance(value, _NUMERIC):
                raise ConfigError(f"{where}: expected a number")
            else:
                setattr(obj, key, float(value))
        else:
            setattr(obj, key, value)
    return obj


def config_from_dict(data: dict) -> Config:
    return _merge(default_config(), data, "")


def load_config(path: str | Path) -> Config:
    """Parse a JSON config file over the defaults; validation is separate."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, "r") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    return config_from_dict(data)


def config_to_dict(cfg: Config) -> dict:
    def conv(value):
        if dataclasses.is_dataclass(value):
            return {f.name: conv(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, dict):
            return {k: conv(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [conv(v) for v in value]
        if isinstance(value, float) and math.isinf(value):
            return "inf"
        return value

    return conv(cfg)


def _object_errors(name: str, oc: ObjectConfig) -> list[str]:
    errs = []
    if oc.stiffness < 0.0:
        errs.append(f"{name}.stiffness: must be >= 0")
    if oc.position_angle < 0.0:
        errs.append(f"{name}.position_angle: must be >= 0")
    for fld in ("deform_threshold", "break_threshold"):
        if getattr(oc, fld) <= 0.0:
            errs.append(f"{name}.{fld}: must be > 0")
    for fld in ("deform_spread", "break_spread", "hold_requirement", "hold_spread"):
        if getattr(oc, fld) < 0.0:
            errs.append(f"{name}.{fld}: must be >= 0")
    return errs


def validate(cfg: Config) -> list[str]:
    """Range-check every field; returns a list of 'path: problem' strings."""
    errs = []
    pc, cc, sc = cfg.plant, cfg.controller, cfg.supervisor
    if pc.tau_p <= 0.0:
        errs.append("plant.tau_p: must be > 0")
    if cc.period <= 0.0:
        errs.append("controller.period: must be > 0")
    elif pc.tau_p > 0.0 and cc.period > pc.tau_p / 2.0:
        errs.append("controller.period: must be <= plant.tau_p / 2 (explicit integration)")
    if pc.k_duty <= 0.0:
        errs.append("plant.k_duty: must be > 0")
    if pc.bend_gain <= 0.0:
        errs.append("plant.bend_gain: must be > 0")
    if pc.angle_max <= 0.0:
        errs.append("plant.angle_max: must be > 0")
    if pc.finger_stiffness <= 0.0:
        errs.append("plant.finger_stiffness: must be > 0")
    if pc.noise_sigma < 0.0:
        errs.append("plant.noise_sigma: must be >= 0")
    if pc.angle_noise_sigma < 0.0:
        errs.append("plant.angle_noise_sigma: must be >= 0")
    if not 0.0 < pc.filter_alpha <= 1.0:
        errs.append("plant.filter_alpha: must be in (0, 1]")
    if len(pc.internal_weights) < 1:
        errs.append("plant.internal_weights: must have at least one coefficient")
    if len(pc.finger_scales) != 3:
        errs.append("plant.finger_scales: must list exactly 3 factors")
    if cc.output_min >= cc.output_max:
        errs.append("controller.output_min: must be < controller.output_max")
    if sc.approach_rate <= 0.0:
        errs.append("supervisor.approach_rate: must be > 0")
    if sc.contact_threshold <= 0.0:
        errs.append("supervisor.contact_threshold: must be > 0")
    if not 0.0 <= sc.hysteresis_ratio <= 1.0:
        errs.append("supervisor.hysteresis_ratio: must be in [0, 1]")
    if sc.extrapolation_margin < 0.0:
        errs.append("supervisor.extrapolation_margin: must be >= 0")
    cal = cfg.calibration
    if cal.cycles < 1:
        errs.append("calibration.cycles: must be >= 1")
    if cal.levels < cal.max_degree + 1:
        errs.append("calibration.levels: must exceed calibration.max_degree")
    if cal.hold_s <= 0.0:
        errs.append("calibration.hold_s: must be > 0")
    if cal.peak_pressure <= 0.0:
        errs.append("calibration.peak_pressure: must be > 0")
    if cal.max_degree < 0:
        errs.append("calibration.max_degree: must be >= 0")
    errs.extend(_object_errors("step.object", cfg.step.object))
    errs.extend(_object_errors("switching.object", cfg.switching.object))
    if cfg.step.n_seeds < 1 or cfg.switching.n_seeds < 1:
        errs.append("step.n_seeds / switching.n_seeds: must be >= 1")
    if cfg.step.first_target <= 0.0 or cfg.step.second_target <= 0.0:
        errs.append("step targets: must be > 0")
    if cfg.switching.target <= 0.0:
        errs.append("switching.target: must be > 0")
    est = cfg.estimation
    if not est.positions:
        errs.append("estimation.positions: must be nonempty")
    if est.target <= 0.0:
        errs.append("estimation.target: must be > 0")
    if est.scale_stiffness <= 0.0:
        errs.append("estimation.scale_stiffness: must be > 0")
    if est.n_seeds < 1:
        errs.append("estimation.n_seeds: must be >= 1")
    g = cfg.grasp
    if not g.setpoints:
        errs.append("grasp.setpoints: must be nonempty")
    if g.n_trials < 1:
        errs.append("grasp.n_trials: must be >= 1")
    # the outcome averages contact force over the final settle window; a
    # window of 0 ticks, or of inf ticks (1e308 / period), crashes the run
    for fld in ("duration_s", "settle_window_s"):
        value = getattr(g, fld)
        if not 0.0 < value < math.inf or (cc.period > 0.0 and not 0.5 < value / cc.period < math.inf):
            errs.append(f"grasp.{fld}: must be > 0 and span at least one, finitely many, control ticks")
    for name, oc in g.objects.items():
        errs.extend(_object_errors(f"grasp.objects.{name}", oc))
    h = cfg.hardness
    if h.stiff_stiffness <= 0.0 or h.soft_stiffness <= 0.0:
        errs.append("hardness stiffnesses: must be > 0")
    if h.slope_threshold <= 0.0:
        errs.append("hardness.slope_threshold: must be > 0")
    return errs
