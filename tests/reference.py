"""The reference tick loop every kernel of ``softgrip.harness`` is checked against.

``simulate`` steps a few fingers one Python call at a time, through the
package's layered API: ``FingerPlant.step``, ``sense`` (``FingerPlant.sense``
of the plant's own state), ``contact_force`` and a policy closure, which
can drive a real ``Supervisor`` and ``PiController``.  It is slow and plain
on purpose.  The production kernels (``_open_loop``, ``_closed_loop`` and
``_grasp_lanes``) hold the state themselves and repeat its arithmetic in a
faster form, and the tests hold them to its bits, comparing with ``hexed``
and counting sensor reads with ``counted_senses``.
``GaussSensor`` is ``FingerPlant.sense``'s noise and filter drawn by
``rng.gauss``, as the block-drawn noise must give them bit for bit.
``residual_sum_of_squares`` is the per-sample formula that
``calibration._rss`` reproduces over arrays and that ``select_model``'s
records are checked against, and ``positional_pi`` the closed form that the
controller's increments add up to.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from array import array
from typing import Callable, NamedTuple

from softgrip.calibration import PolynomialModel, Sample
from softgrip.config import Config
from softgrip.control import Supervisor
from softgrip.estimation import ContactDetector, contact_force
from softgrip.harness import Trace
from softgrip.plant import FingerPlant, ObjectModel


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
            reading = sense(plant_obj)
            estimate = None
            if model is not None:
                estimate = contact_force(reading, model, margin)
            duty = policy(i, reading, estimate)
            if duty is None:
                return
            plant_obj.step(duty, dt, obj)
            if record is not None:
                record(i, duty, reading, estimate)


def sense(plant_obj: FingerPlant) -> tuple:
    """``FingerPlant.sense`` of the plant's own state: its angle, and its
    internal model's force there plus its contact force."""
    angle = plant_obj.angle
    return plant_obj.sense(angle, plant_obj.internal_model.predict(angle) + plant_obj.contact_force)


class GaussSensor:
    """``FingerPlant.sense``'s noise and filter as drawn one ``rng.gauss``
    call per noisy channel: the reference the block draw must equal."""

    def __init__(self, plant: FingerPlant, seed: int):
        self.plant, self.rng, self.state = plant, random.Random(seed), None

    def sense(self, angle: float, force: float) -> tuple:
        p = self.plant
        if p.noise_sigma > 0.0:
            force += self.rng.gauss(0.0, p.noise_sigma)
        raw = force if force > 0.0 else 0.0
        self.state = raw if self.state is None else self.state + p.filter_alpha * (raw - self.state)
        if p.angle_noise_sigma > 0.0:
            angle += self.rng.gauss(0.0, p.angle_noise_sigma)
        return angle.hex(), self.state.hex()


def trace_row(trace: Trace, plant_obj: FingerPlant, t, duty, reading, estimate, mode) -> None:
    """Append a tick's reading and estimate with the state its step left."""
    trace.append(
        t,
        duty,
        plant_obj.pressure,
        plant_obj.angle,
        reading[1],
        estimate.internal,
        estimate.contact,
        plant_obj.contact_force,
        mode,
    )


def build_supervisor(cfg: Config, target: float) -> Supervisor:
    sc = cfg.supervisor
    return Supervisor(
        target_force=target,
        approach_rate=sc.approach_rate,
        detector=ContactDetector(sc.contact_threshold),
    )


def positional_pi(kp: float, ki: float, period: float, errors: list[float]) -> float:
    """Closed-form u_n = kp*e_n + ki*T*sum(e_k) for an error sequence: the
    quantity ``PiController.step`` applies as its per-tick duty adjustment."""
    if not errors:
        raise ValueError("errors must be nonempty")
    return kp * errors[-1] + ki * period * sum(errors)


def residual_sum_of_squares(model: PolynomialModel, samples: list[Sample]) -> float:
    """One ``predict`` per sample, squared by ``**`` and summed in sample order."""
    return float(sum((model.predict(s.angle) - s.force) ** 2 for s in samples))


def hexed(value):
    """``value`` with every float inside it replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return [hexed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple, array)):
        return [hexed(v) for v in value]
    return value


@contextlib.contextmanager
def counted_senses():
    """The ``FingerPlant.sense`` calls made inside, counted into a one-item list."""
    calls = [0]
    real = FingerPlant.sense

    def sense(self, *args):
        calls[0] += 1
        return real(self, *args)

    FingerPlant.sense = sense
    try:
        yield calls
    finally:
        FingerPlant.sense = real
