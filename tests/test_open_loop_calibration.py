"""The open-loop calibration ramp against the tick loop it replaced.

``harness.calibrate_finger`` steps the whole staircase's free-space
mechanics first, on ``harness._open_loop``, and then reads its sensors in
one pass.  The oracle below is the body it had on the reference tick loop
(``reference.simulate``): a staircase policy fed one tick at a time.  Over
generated configs the two must give the same samples and the same trace,
every float compared as ``float.hex`` and every value a Python ``float``,
so the CSVs keep their bytes.

The strategies reach peak pressures above the PWM ceiling (the duty caps at
``MAX_DUTY``), bend angles that saturate at ``angle_max``, noise sigma 0,
``filter_alpha`` 1.0, and true models that predict negative internal
forces.  Sizes stay small: 1-3 cycles of few levels, dwells of 1-3 ticks.

The ramp keeps the tick loop's sensing contract, which the benchmark's
traced check counts on: one ``FingerPlant.sense`` call per finger-tick.
"""

import csv
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import Sample, save_samples
from softgrip.config import config_from_dict, validate
from softgrip.harness import Trace
from softgrip.plant import MAX_DUTY, FingerPlant

from reference import Lane, simulate, trace_row

# ---------------------------------------------------------------------------
# Oracle: the ramp on the scalar tick loop


def oracle_calibrate_finger(cfg, finger, seed, with_trace=False) -> tuple:
    cal = cfg.calibration
    dt = cfg.controller.period
    plant_obj = harness._build_plant(cfg, finger, harness.derive_seed(seed, "calibration", finger, "plant"))
    level_rng = random.Random(harness.derive_seed(seed, "calibration", finger, "levels"))
    peak_duty = min(MAX_DUTY, cal.peak_pressure / cfg.plant.k_duty)
    base_levels = [peak_duty * k / cal.levels for k in range(1, cal.levels + 1)]
    hold_ticks = max(1, int(round(cal.hold_s / dt)))
    rest_ticks = max(1, int(round(cal.rest_s / dt)))
    schedule = []
    sample_ticks = set()
    for _ in range(cal.cycles):
        jittered = [
            min(MAX_DUTY, max(1.0, lv + level_rng.uniform(-cal.level_jitter, cal.level_jitter)))
            for lv in base_levels
        ]
        for duty in jittered + jittered[-2::-1]:
            schedule += [duty] * hold_ticks
            sample_ticks.add(len(schedule) - 1)
        schedule += [0.0] * rest_ticks
        sample_ticks.add(len(schedule) - 1)
    schedule.append(None)
    samples = []
    trace = Trace() if with_trace else None
    t = 0.0

    def staircase(i, reading, estimate):
        nonlocal t
        if trace is not None:
            trace_row(trace, plant_obj, t, schedule[i], reading, estimate, "calibrate")
            t += dt
        if i in sample_ticks:
            samples.append(Sample(*reading))
        return schedule[i + 1]

    model = plant_obj.internal_model if with_trace else None
    simulate(cfg, [Lane(plant_obj, model, None, schedule[0], staircase)], len(schedule) - 1)
    return samples, trace


# ---------------------------------------------------------------------------
# Strategies


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


QUARTIC = [0.02, 5e-4, 5e-6, 5e-8, 1e-8]
# negative below 10 deg of bend: the trace's internal prediction clamps at 0
DIPPING = [-0.05, -2e-3, 7e-4]


@st.composite
def config_specs(draw) -> dict:
    period = draw(st.sampled_from([1.0 / 60.0, 0.01, 0.005]))
    return {
        "seed": draw(st.integers(0, 2**31)),
        "plant": {
            "tau_p": draw(floats(2.0 * period, 0.1)),
            "k_duty": draw(floats(0.2, 1.5)),
            "bend_gain": draw(floats(0.5, 3.0)),
            "angle_max": draw(st.one_of(st.just(130.0), floats(5.0, 60.0))),
            "noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.5))),
            "angle_noise_sigma": draw(st.one_of(st.just(0.0), floats(0.001, 0.5))),
            "filter_alpha": draw(st.one_of(st.just(1.0), floats(0.05, 1.0))),
            "internal_weights": draw(st.sampled_from([QUARTIC, DIPPING])),
        },
        "controller": {"period": period},
        "calibration": {
            "cycles": draw(st.integers(1, 3)),
            "levels": draw(st.integers(2, 4)),
            "max_degree": 1,
            "hold_s": draw(st.integers(1, 3)) * period,
            "rest_s": draw(st.integers(1, 3)) * period,
            "level_jitter": draw(floats(0.0, 20.0)),
            # above MAX_DUTY * k_duty the top levels cap at the PWM ceiling
            "peak_pressure": draw(floats(5.0, 250.0)),
        },
    }


def build(spec: dict):
    cfg = config_from_dict(spec)
    assert validate(cfg) == []
    return cfg


def hexed(values: list) -> list:
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


def assert_matches_oracle(cfg, finger: int) -> tuple:
    samples, trace = harness.calibrate_finger(cfg, finger, cfg.seed, with_trace=True)
    expect_samples, expect_trace = oracle_calibrate_finger(cfg, finger, cfg.seed, with_trace=True)
    for got, expect in ((samples, expect_samples), (trace.t, expect_trace.t)):
        assert len(got) == len(expect)
    assert [hexed([s.angle, s.force]) for s in samples] == [hexed([s.angle, s.force]) for s in expect_samples]
    *numbers, modes = vars(trace).values()
    *expect_numbers, expect_modes = vars(expect_trace).values()
    for column, expect in zip(numbers, expect_numbers):
        assert hexed(column) == hexed(expect)
    assert modes == expect_modes == ["calibrate"] * len(trace)
    # without the trace the ramp reads the same samples
    assert harness.calibrate_finger(cfg, finger, cfg.seed)[0] == samples
    return samples, trace


# saturated bend, PWM-capped peak, noise off, no filter lag, negative internal model
EDGES = {
    "seed": 3,
    "plant": {
        "bend_gain": 0.5,
        "angle_max": 20.0,
        "noise_sigma": 0.0,
        "angle_noise_sigma": 0.0,
        "filter_alpha": 1.0,
        "internal_weights": DIPPING,
    },
    "calibration": {
        "cycles": 2,
        "levels": 3,
        "max_degree": 1,
        "hold_s": 0.05,
        "rest_s": 1 / 60,
        "level_jitter": 20.0,
        "peak_pressure": 200.0,
    },
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=config_specs(), finger=st.integers(0, 2))
@example(spec=EDGES, finger=1)
def test_open_loop_ramp_matches_the_tick_loop(spec, finger):
    assert_matches_oracle(build(spec), finger)


def test_the_edge_example_reaches_each_edge():
    cfg = build(EDGES)
    _, trace = assert_matches_oracle(cfg, 1)
    assert max(trace.duty) == MAX_DUTY
    assert max(trace.angle) == cfg.plant.angle_max
    assert 0.0 in trace.f_i_pred and max(trace.f_i_pred) > 0.0


def test_a_period_past_tau_p_half_raises_the_plant_error():
    cfg = build({"calibration": {"cycles": 1, "levels": 7, "hold_s": 0.1, "rest_s": 0.1}})
    cfg.controller.period = cfg.plant.tau_p
    errors = []
    for calibrate in (harness.calibrate_finger, oracle_calibrate_finger):
        with pytest.raises(ValueError, match="exceeds tau_p/2") as info:
            calibrate(cfg, 0, cfg.seed)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("with_trace", [False, True])
def test_one_sense_call_per_finger_tick(monkeypatch, with_trace):
    cfg = build({"calibration": {"cycles": 3, "levels": 7, "hold_s": 0.1, "rest_s": 0.05}})
    cal, dt = cfg.calibration, cfg.controller.period
    hold_ticks, rest_ticks = round(cal.hold_s / dt), round(cal.rest_s / dt)
    calls = [0]
    real = FingerPlant.sense

    def sense(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(FingerPlant, "sense", sense)
    samples, trace = harness.calibrate_finger(cfg, 0, cfg.seed, with_trace)
    assert calls[0] == cal.cycles * ((2 * cal.levels - 1) * hold_ticks + rest_ticks) == 3 * (13 * 6 + 3)
    assert len(samples) == cal.cycles * 2 * cal.levels
    assert trace is None or len(trace) == calls[0]


# ---------------------------------------------------------------------------
# The CSV writers keep csv.writer's bytes


def test_trace_csv_bytes_are_csv_writers(tmp_path):
    trace = Trace()
    trace.append(0.0, 100, -0.0, 1e-300, float("nan"), float("inf"), -float("inf"), 0.1 + 0.2, "approach")
    trace.append(1 / 60, 2.5, 3.0, 130.0, 5e-324, 0.0, -1.5, 0.0, "force_control")
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(tmp_path / "expect.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.TRACE_HEADER)
        *numbers, modes = vars(trace).values()
        writer.writerows(zip(*(map(repr, column) for column in numbers), modes))
    assert path.read_bytes() == (tmp_path / "expect.csv").read_bytes()


def test_samples_csv_bytes_are_csv_writers(tmp_path):
    samples = [Sample(0.0, 0.02), Sample(1e-300, 0.1 + 0.2), Sample(130.0, 12345.678)]
    save_samples(tmp_path / "samples.csv", samples)
    with open(tmp_path / "expect.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("angle_deg", "force_n"))
        writer.writerows([repr(s.angle), repr(s.force)] for s in samples)
    assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()
    save_samples(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == b"angle_deg,force_n\r\n"
