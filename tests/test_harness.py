"""Harness tests.

Covers:
- trace shape/CSV round trip and metrics recomputation from the exported CSV
- ``Trace.append`` fills the columns in field order, and a row of another
  length appends nothing
- calibration experiment: degree-4 selection, near-perfect R^2 with noise off,
  coefficient confidence tightening with more cycles
- estimation accuracy: noise-off error bound, unreachable positions and
  windows the timeout cuts short flagged
- step response: zero-gain controller flagged unsettled, kp doubling does not
  slow settling on the default plant
- switching: single switch, settling from the switch instant
- grasp sweep: exact percentage granularity, force-balance identity,
  deterministic tables, parallel == serial, a pool of no more workers than
  batches, a repeated set-point counted once per row
- hardness: stiff/soft classification, and no classification in free
  space, for points of one force, or without a detected contact
- every mechanical ``PlantConfig`` field, and the finger's scaled internal
  weights, reach the plant ``_build_plant`` builds
- the tick kernel: calibration with and without a trace, early exit, and
  one ``contact_force`` per hardness-probe tick, looked up where the
  benchmark's tracer wraps it
- every noise stream of ``calibrate`` and the five ``run`` experiments draws
  exactly the values its readers take, rounded up to an even count
- over generated small configs, every numeric column of the calibration,
  step, switching and hardness traces is an ``array('d')``, every number read
  from it a Python float (a numpy scalar's repr would reach the CSV), and
  ``FingerPlant.sense`` returns a tuple of two floats
- the CSV of a trace holding signed zeros, NaN, infinities and subnormals,
  and ``hexed`` over a float array
"""

import concurrent.futures
import copy
import csv
import json
import math
from array import array
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softgrip import harness
from softgrip.calibration import PolynomialModel
from softgrip.cli import main
from softgrip.config import config_from_dict, config_to_dict, default_config, validate
from softgrip.harness import (
    Trace,
    compute_step_metrics,
    grasp_trial,
    probe_hardness,
    run_calibration_experiment,
    run_estimation_accuracy,
    run_grasp_sweep,
    run_hardness_probe,
    run_step_response,
    run_switching_experiment,
)
from softgrip.plant import MAX_NOISE_BLOCK, FingerPlant, GaussStream

import reference
from reference import Lane, hexed, simulate


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def models(cfg):
    return harness.calibrate_models(cfg, cfg.seed)


def read_trace(path) -> Trace:
    """A trace CSV parsed back with ``csv``: the numbers, then the mode."""
    trace = Trace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == harness.TRACE_HEADER
        for row in reader:
            trace.append(*map(float, row[:8]), row[8])
    return trace


def test_trace_time_grid_and_csv_roundtrip(tmp_path, cfg, models):
    results = run_step_response(cfg, 1, models=models)
    trace = results[0].trace
    dt = cfg.controller.period
    for i in range(1, len(trace)):
        assert trace.t[i] - trace.t[i - 1] == pytest.approx(dt, abs=1e-12)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    loaded = read_trace(path)
    assert loaded.t == trace.t
    assert loaded.f_c_est == trace.f_c_est
    assert loaded.mode == trace.mode


def test_trace_csv_writes_each_number_as_its_repr(tmp_path):
    values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1, -2.5]
    rows = [values[k:] + values[:k] for k in range(len(values))]  # each value once per column
    trace = Trace()
    for row in rows:
        trace.append(*row, "probe")
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    expected = [",".join(harness.TRACE_HEADER)] + [",".join(map(repr, row)) + ",probe" for row in rows]
    assert path.read_bytes() == "".join(line + "\r\n" for line in expected).encode()


def test_trace_append_takes_one_row_in_column_order():
    trace = Trace()
    trace.append(*map(float, range(8)), "probe")
    assert [column[0] for column in vars(trace).values()] == [*map(float, range(8)), "probe"]
    for row in ([0.0] * 8, [0.0] * 8 + ["probe", "extra"]):
        with pytest.raises(ValueError):
            trace.append(*row)
    assert {len(column) for column in vars(trace).values()} == {1}


def test_hexed_reads_float_arrays_bit_for_bit():
    assert hexed(array("d", [-0.0, math.nan])) == [(-0.0).hex(), math.nan.hex()]
    assert hexed(array("d", [-0.0])) != hexed(array("d", [0.0]))


def test_metrics_recompute_from_csv(tmp_path, cfg, models):
    res = run_step_response(cfg, 2, models=models)[0]
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    loaded = read_trace(path)
    seg = cfg.step.segment_s
    recomputed = [
        compute_step_metrics(loaded, cfg.step.first_target, 0.0, seg),
        compute_step_metrics(loaded, cfg.step.second_target, seg, 2 * seg),
    ]
    assert recomputed == res.metrics  # no hidden state beyond the trace


def test_calibration_experiment_selects_quartic(cfg):
    for seed in (0, 1, 2):
        result = run_calibration_experiment(cfg, seed)
        assert [r.selected_degree for r in result.reports] == [4, 4, 4]


def test_calibration_noise_off_near_perfect_r2(cfg):
    quiet = copy.deepcopy(cfg)
    quiet.plant.noise_sigma = 0.0
    quiet.plant.angle_noise_sigma = 0.0
    result = run_calibration_experiment(quiet, 0)
    for report in result.reports:
        rec = next(r for r in report.records if r.degree == report.selected_degree)
        assert rec.r_squared > 0.9999


def test_calibration_more_cycles_tighter_coefficients(cfg):
    # spread of the leading coefficient across seeds shrinks with 35x data
    import statistics

    few = copy.deepcopy(cfg)
    few.calibration.cycles = 1
    many = copy.deepcopy(cfg)
    many.calibration.cycles = 35

    def leading_spread(c):
        vals = []
        for seed in range(6):
            report = run_calibration_experiment(c, seed).reports[0]
            rec = next(r for r in report.records if r.degree == 4)
            vals.append(rec.weights[4])
        return statistics.stdev(vals)

    assert leading_spread(many) < leading_spread(few)


def test_estimation_noise_off_error_below_fit_residual(cfg, models):
    quiet = copy.deepcopy(cfg)
    quiet.plant.noise_sigma = 0.0
    quiet.plant.angle_noise_sigma = 0.0
    quiet.estimation.n_seeds = 1
    rows = run_estimation_accuracy(quiet, 3, models=models)
    # only model mismatch remains; the fitted models are within the noise
    # floor of truth, so errors sit far below the 0.15 N budget
    assert all(r.abs_error is not None and r.abs_error <= 0.05 for r in rows)


def test_estimation_unreachable_position_flagged(cfg, models):
    far = copy.deepcopy(cfg)
    far.estimation.positions = [110.0]  # beyond the duty range for 2 N
    far.estimation.n_seeds = 1
    rows = run_estimation_accuracy(far, 0, models=models)
    assert len(rows) == 1
    assert rows[0].flagged == "unreachable at max duty"
    assert rows[0].abs_error is None


def test_estimation_window_cut_short_by_the_timeout_flagged(cfg, models):
    short = copy.deepcopy(cfg)
    short.estimation.positions = [15.0]
    short.estimation.n_seeds = 1
    # the timeout ends the press 2 ticks into its 30-tick window
    short.estimation.timeout_s = 10.5
    assert harness._press(short, 15.0)[2] == 2
    rows = run_estimation_accuracy(short, 0, models=models)
    assert [(r.estimated, r.true_force, r.abs_error, r.flagged) for r in rows] == [
        (None, None, None, "timeout")
    ]
    # half a second more fills the window
    short.estimation.timeout_s = 11.0
    assert run_estimation_accuracy(short, 0, models=models)[0].flagged is None


def test_step_zero_gain_flagged_unsettled(cfg, models):
    dead = copy.deepcopy(cfg)
    dead.controller.kp = 0.0
    dead.controller.ki = 0.0
    dead.step.n_seeds = 1
    dead.step.segment_s = 5.0
    results = run_step_response(dead, 0, models=models)
    metrics = results[0].metrics
    assert not metrics[0].settled
    assert metrics[0].settling_time is None


def test_step_doubled_kp_settles_no_slower(cfg, models):
    base = copy.deepcopy(cfg)
    base.step.n_seeds = 1
    base.step.segment_s = 10.0
    hot = copy.deepcopy(base)
    hot.controller.kp = 2.0 * base.controller.kp
    m_base = run_step_response(base, 4, models=models)[0].metrics[0]
    m_hot = run_step_response(hot, 4, models=models)[0].metrics[0]
    assert m_hot.settled
    dt = base.controller.period
    assert m_hot.settling_time <= m_base.settling_time + dt


def test_switching_switches_once_and_settles(cfg, models):
    results = run_switching_experiment(cfg, 5, models=models)
    assert len(results) == cfg.switching.n_seeds
    for res in results:
        assert res.switch_time is not None
        assert res.metrics.settled
        assert res.metrics.settling_time <= 2.0
        # mode sequence: a block of approach, then force_control to the end
        modes = res.trace.mode
        flip = modes.index("force_control")
        assert all(m == "approach" for m in modes[:flip])
        assert all(m == "force_control" for m in modes[flip:])


def test_grasp_percentages_are_exact_multiples(cfg, models):
    small = copy.deepcopy(cfg)
    small.grasp.setpoints = [1.0, 2.0]
    small.grasp.n_trials = 4
    small.grasp.duration_s = 6.0
    table = run_grasp_sweep(small, 1, models=models)
    step = 100.0 / small.grasp.n_trials
    for row in table.rows:
        for pct in (row.dropped_pct, row.deformed_pct, row.broken_pct):
            assert pct == pytest.approx(round(pct / step) * step)
        assert row.n_trials == 4


def test_grasp_repeated_setpoint_counts_each_cell_once(cfg, models):
    twice = copy.deepcopy(cfg)
    twice.grasp.objects = {"eggshell": cfg.grasp.objects["eggshell"]}
    twice.grasp.setpoints = [1.0, 1.0]
    twice.grasp.n_trials = 2
    twice.grasp.duration_s = 2.0
    rows = run_grasp_sweep(twice, 3, models=models).rows
    assert [r.n_trials for r in rows] == [2, 2]
    assert rows[0] == rows[1]


def test_grasp_balance_targets_exact():
    for setpoint in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        t1 = t2 = setpoint / 2.0
        assert t1 + t2 == setpoint  # IEEE-exact halving


def test_grasp_table_deterministic_and_parallel_equal(cfg, models):
    small = copy.deepcopy(cfg)
    small.grasp.setpoints = [1.0, 3.0]
    small.grasp.n_trials = 3
    small.grasp.duration_s = 6.0
    serial = run_grasp_sweep(small, 9, models=models)
    again = run_grasp_sweep(small, 9, models=models)
    parallel = run_grasp_sweep(small, 9, jobs=2, models=models)
    assert serial == again
    assert serial == parallel


def test_grasp_pool_has_no_more_workers_than_batches(cfg, models, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ``ProcessPoolExecutor``; runs the batches in this process."""

        def __init__(self, max_workers):
            self.max_workers, self.batches = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            self.batches = len(chunks)
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    small = copy.deepcopy(cfg)
    small.grasp.setpoints = [1.0]
    small.grasp.n_trials = 2
    small.grasp.duration_s = 2.0
    serial = run_grasp_sweep(small, 9, models=models)
    for jobs in (2, 500):  # 6 trials: batches of 3, then of 1
        assert run_grasp_sweep(small, 9, jobs=jobs, models=models) == serial
    assert [(p.max_workers, p.batches) for p in pools] == [(2, 2), (6, 6)]
    # a sweep of one batch starts no pool
    small.grasp.objects = {"eggshell": cfg.grasp.objects["eggshell"]}
    small.grasp.n_trials = 1
    run_grasp_sweep(small, 9, jobs=500, models=models)
    assert len(pools) == 2


def test_grasp_trial_outcome_fields(cfg, models):
    outcome = grasp_trial(cfg, "plastic_cup", 4.0, 0, 7, models)
    assert (outcome.dropped, outcome.deformed, outcome.broken) == (False, True, False)
    outcome2 = grasp_trial(cfg, "eggshell", 2.0, 0, 7, models)
    assert not outcome2.broken


def test_hardness_probe_classifications(cfg, models):
    results = run_hardness_probe(cfg, 3, models=models)
    assert results["stiff"].classification == "stiff"
    assert results["soft"].classification == "soft"
    assert results["stiff"].slope_deg_per_n < results["soft"].slope_deg_per_n


def test_hardness_free_space_no_classification(cfg, models):
    res = probe_hardness(cfg, None, 3, models=models)
    assert res.classification is None
    assert res.slope_deg_per_n is None


def test_hardness_points_of_one_force_no_classification():
    # noise off, no filter lag, no ramp, the object behind the rest angle: every
    # estimate reads one force, above the contact threshold.  The mean of the
    # equal forces is not exactly equal to them, so their spread is not 0.
    cfg = config_from_dict(
        {
            "seed": 0,
            "plant": {"noise_sigma": 0.0, "angle_noise_sigma": 0.0, "filter_alpha": 1.0},
            "hardness": {"ramp_rate": 0.0, "min_contact_force": 0.0, "position_angle": -8.0},
        }
    )
    res = run_hardness_probe(cfg)["stiff"]
    points = [f for f in res.trace.f_c_est if f > 0.0]
    assert len(points) >= 20 and len(set(points)) == 1
    assert points[0] >= cfg.supervisor.contact_threshold
    assert (res.classification, res.slope_deg_per_n) == (None, None)


def test_hardness_without_a_detected_contact_no_classification():
    # the object lies past the finger's reach: the true force is 0 on every
    # tick, but noisy free-space estimates above a 0 N floor count as points
    cfg = config_from_dict({"hardness": {"min_contact_force": 0.0, "position_angle": 200.0}})
    for res in run_hardness_probe(cfg).values():
        assert set(res.trace.f_c_true) == {0.0}
        assert sum(f > 0.0 for f in res.trace.f_c_est) >= 20
        assert max(res.trace.f_c_est) < cfg.supervisor.contact_threshold
        assert (res.classification, res.slope_deg_per_n) == (None, None)


def test_step_metrics_unsettled_overshoot_covers_segment():
    trace = Trace()
    dt = 1.0 / 60.0
    for i in range(120):
        f = 3.5 if i > 60 else 0.0  # never inside the 2.0 band
        trace.append(i * dt, 0, 0, 0, f, 0, f, f, "force_control")
    m = compute_step_metrics(trace, 2.0, 0.0, 2.0)
    assert not m.settled
    assert m.overshoot == pytest.approx(0.75)


def test_step_metrics_requires_rows():
    with pytest.raises(ValueError):
        compute_step_metrics(Trace(), 1.0, 0.0, 1.0)


def test_calibrate_finger_trace_is_optional(cfg):
    small = copy.deepcopy(cfg)
    small.calibration.cycles = 2
    plain, none = harness.calibrate_finger(small, 1, 4)
    traced, trace = harness.calibrate_finger(small, 1, 4, with_trace=True)
    assert none is None
    assert traced == plain
    cal, dt = small.calibration, small.controller.period
    dwell_ticks = (2 * cal.levels - 1) * round(cal.hold_s / dt) + round(cal.rest_s / dt)
    assert len(trace) == cal.cycles * dwell_ticks
    assert set(trace.mode) == {"calibrate"}


def zero_or_up_to(hi: float):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    noise_sigma=zero_or_up_to(0.1),
    angle_noise_sigma=zero_or_up_to(0.2),
    filter_alpha=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
    warm_start=zero_or_up_to(10.0),
)
def test_traces_and_senses_hold_python_floats(seed, noise_sigma, angle_noise_sigma, filter_alpha, warm_start):
    cfg = config_from_dict(
        {
            "seed": seed,
            "plant": {
                "noise_sigma": noise_sigma,
                "angle_noise_sigma": angle_noise_sigma,
                "filter_alpha": filter_alpha,
            },
            "calibration": {"cycles": 2, "levels": 8},
            "step": {"n_seeds": 1, "segment_s": 1.0, "warm_start_duty": warm_start},
            "switching": {"n_seeds": 1, "duration_s": 2.0},
            "hardness": {"duration_s": 4.0},
        }
    )
    real, readings = FingerPlant.sense, set()

    def sense(self, *args):
        reading = real(self, *args)
        readings.add((type(reading), len(reading), *map(type, reading)))
        return reading

    with mock.patch.object(FingerPlant, "sense", sense):
        calibration = run_calibration_experiment(cfg, with_trace=True)
        models = [report.selected() for report in calibration.reports]
        traces = list(calibration.traces)
        traces += [r.trace for r in run_step_response(cfg, models=models)]
        traces += [r.trace for r in run_switching_experiment(cfg, models=models)]
        traces += [r.trace for r in run_hardness_probe(cfg, models=models).values()]
    assert readings == {(tuple, 2, float, float)}
    for trace in traces:
        *numbers, modes = vars(trace).values()
        assert all(type(column) is array and column.typecode == "d" for column in numbers)
        assert all(type(v) is float for column in numbers for v in column)


def test_every_mechanical_plant_field_reaches_each_finger():
    # each field its own in-bounds value, none its default, so a field read
    # into another's place or left at its default shows
    mechanics = {
        "tau_p": 0.041, "k_duty": 0.7, "bend_gain": 1.9, "angle_max": 121.0,
        "finger_stiffness": 0.031, "noise_sigma": 0.013, "angle_noise_sigma": 0.07, "filter_alpha": 0.9,
    }
    weights, scales = [0.03, 4e-4, 6e-6, 4e-8, 2e-8], [1.1, 0.9, 1.05]
    defaults = vars(default_config().plant)
    assert all(value != defaults[name] for name, value in mechanics.items())
    cfg = config_from_dict({"plant": {**mechanics, "internal_weights": weights, "finger_scales": scales}})
    assert validate(cfg) == []
    for f, scale in enumerate(scales):
        plant = harness._build_plant(cfg, f, 1)
        assert {name: getattr(plant, name) for name in mechanics} == mechanics
        assert list(map(float.hex, plant.internal_model.weights)) == [(w * scale).hex() for w in weights]


def test_simulate_stops_before_stepping_when_policy_returns_none(cfg):
    dt = cfg.controller.period
    plant = harness._build_plant(cfg, 0, 1)
    reference = harness._build_plant(cfg, 0, 1)
    for duty in (10.0, 50.0, 50.0):
        reference.step(duty, dt)
    recorded = []
    lane = Lane(
        plant, None, None, 10.0,
        policy=lambda i, reading, estimate: 50.0 if i < 2 else None,
        record=lambda i, duty, reading, estimate: recorded.append(i),
    )
    simulate(cfg, [lane], 10)
    assert recorded == [0, 1]
    assert plant.pressure == reference.pressure


def test_probe_hardness_calls_contact_force_once_per_tick(cfg, models, monkeypatch):
    # the kernel looks the estimator up as a harness global, where it is wrapped
    calls = []
    estimate = harness.contact_force
    monkeypatch.setattr(harness, "contact_force", lambda *a: calls.append(1) or estimate(*a))
    probe_hardness(cfg, None, 3, models)
    assert len(calls) == round(cfg.hardness.duration_s / cfg.controller.period)


def scan_step_metrics(trace, target, t_start, t_end, band=0.05):
    """``compute_step_metrics`` as it was: the segment found by scanning every row."""
    idx = [i for i in range(len(trace)) if t_start <= trace.t[i] < t_end]
    if not idx:
        raise ValueError("empty segment")
    lo, hi = target * (1.0 - band), target * (1.0 + band)
    from_below = trace.f_c_true[idx[0]] <= target
    settle_at = None
    for i in idx:
        if lo <= trace.f_c_true[i] <= hi:
            if settle_at is None:
                settle_at = i
        else:
            settle_at = None
    if settle_at is None:
        values = [trace.f_c_true[i] for i in idx]
        rms = harness._rms([trace.f_c_est[i] - target for i in idx])
        return harness.StepMetrics(target, False, None, harness._overshoot(values, target, from_below), rms)
    values = [trace.f_c_true[i] for i in idx if i <= settle_at]
    rms = harness._rms([trace.f_c_est[i] - target for i in idx if i >= settle_at])
    overshoot = harness._overshoot(values, target, from_below)
    return harness.StepMetrics(target, True, trace.t[settle_at] - t_start, overshoot, rms)


STEP_TARGETS = (0.5, 2.0, 2.5, 3.0)


def band_edge_forces(target: float) -> list:
    """True-force columns of 48 rows about ``target``'s settling band: every
    row in it, none, only the last row out, NaN and signed zeros, and rows
    exactly at its edges and one ulp past them."""
    lo, hi = target * (1.0 - harness.SETTLING_BAND), target * (1.0 + harness.SETTLING_BAND)
    below, above, nan = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan
    return [
        [target] * 48,
        [0.0, -0.0] * 24,
        [target] * 47 + [above],
        [target] * 47 + [nan],
        [-0.0, 0.0, lo, hi] * 12,
        [hi, lo] * 24,
        [below, lo, above, hi] * 12,
        [hi, lo, target, below] * 12,
        [0.0] * 10 + [nan] + [lo] * 20 + [hi] * 17,
        [-0.0, 0.0] * 5 + [1.2 * target] * 10 + [-0.0] + [target] * 27,
    ]


def forces_trace(forces: list) -> Trace:
    """A 60 Hz trace of the true forces ``forces``, each row's estimate off it by a little."""
    trace = Trace()
    for i, f in enumerate(forces):
        trace.append(i / 60.0, 0.0, 0.0, 0.0, 0.0, 0.0, f + 0.01 * (i % 5 - 2), f, "force_control")
    return trace


def test_step_segment_slice_equals_row_scan(cfg, models):
    small = copy.deepcopy(cfg)
    small.step.segment_s, small.step.n_seeds = 1.0, 1
    small.switching.duration_s, small.switching.n_seeds = 2.0, 2
    results = run_step_response(small, 3, models) + run_switching_experiment(small, 3, models)
    traces = [r.trace for r in results]
    traces += [forces_trace(forces) for target in STEP_TARGETS for forces in band_edge_forces(target)]
    for trace in traces:
        t = trace.t
        # bounds at exactly a row's time, between rows, outside the trace, and reversed
        bounds = [(t[0], t[-1]), (t[5], t[40]), (t[5], t[5]), (t[40], t[5]), (t[-1], 99.0), (-1.0, t[0])]
        bounds += [(t[7] + 1e-9, t[30] - 1e-9), (-1.0, 99.0), (t[12], t[13])]
        for t_start, t_end in bounds:
            assert t[harness._segment(t, t_start, t_end)] == array("d", [x for x in t if t_start <= x < t_end])
            for target in STEP_TARGETS:
                try:
                    expected = scan_step_metrics(trace, target, t_start, t_end)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        compute_step_metrics(trace, target, t_start, t_end)
                    continue
                got = compute_step_metrics(trace, target, t_start, t_end)
                assert repr(got) == repr(expected)


# deviations whose squares overflow (from ~1.3e154), their sums, and the
# scaled sum that then replaces them
RMS_EDGES = [0.0, -0.0, 1.0, 1e8, 1e154, 1e200, -1e200, 1.5e200, 1.7e308, 5e-324, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(RMS_EDGES) | st.floats(), min_size=1, max_size=40))
@example([1e8, 1.0, 1.0])  # the sum of the squares rounds in row order
@example([1e200, -3e199, 2.5])
@example([-1e200, 1e-200, 0.0])
@example([1e200, math.inf])
@example([1e200, math.nan])
@example([1.7e308, 1.7e308, -1.7e308])
def test_rms_equals_the_generator_sum(deviations):
    assert harness._rms(deviations).hex() == reference.rms(deviations).hex()


def test_probe_hardness_needs_20_points_in_contact(cfg, models):
    # a shorter probe reads the first ticks of a longer one (its noise too),
    # so the longer one's estimates count the points of each shorter one
    full = probe_hardness(cfg, cfg.hardness.stiff_stiffness, 3, models)
    points = list(accumulate((e > cfg.hardness.min_contact_force for e in full.trace.f_c_est), initial=0))
    for count, classified in ((19, False), (20, True)):
        n = points.index(count)
        short = copy.deepcopy(cfg)
        short.hardness.duration_s = n * cfg.controller.period
        res = probe_hardness(short, cfg.hardness.stiff_stiffness, 3, models)
        estimates = list(res.trace.f_c_est)
        assert hexed(estimates) == hexed(full.trace.f_c_est[:n])
        forces = [e for e in estimates if e > cfg.hardness.min_contact_force]
        # neither of the other guards applies: the detector fires, and the forces differ
        assert len(forces) == count and min(forces) < max(forces)
        assert max(estimates) >= cfg.supervisor.contact_threshold
        assert (res.classification is not None, res.slope_deg_per_n is not None) == (classified, classified)


def test_hardness_squared_deviations_underflow_no_classification():
    # no internal force, noise or filter lag, and a model that predicts none:
    # each estimate is the true contact force, which at 1e-170 N/deg stays
    # below 1e-167 N, so the forces differ but their squared deviations
    # from the mean underflow to 0, and the slope has nothing to divide by
    cfg = config_from_dict(
        {
            "plant": {"internal_weights": [0.0], "noise_sigma": 0.0, "angle_noise_sigma": 0.0, "filter_alpha": 1.0},
            "supervisor": {"contact_threshold": 1e-300},
            "hardness": {"soft_stiffness": 1e-170, "min_contact_force": 0.0},
        }
    )
    assert validate(cfg) == []
    res = probe_hardness(cfg, cfg.hardness.soft_stiffness, 3, [PolynomialModel(0, (0.0,))])
    forces = [e for e in res.trace.f_c_est if e > 0.0]
    mean = sum(forces) / len(forces)
    assert len(forces) >= 20 and min(forces) < max(forces)
    assert max(forces) >= cfg.supervisor.contact_threshold
    assert sum((f - mean) ** 2 for f in forces) == 0.0
    assert (res.classification, res.slope_deg_per_n) == (None, None)


# every command at a small size, its runs' noise values a count that no
# 512-value block divides
SMALL_RUNS = {
    "calibration": {"cycles": 1, "levels": 8, "hold_s": 0.05, "rest_s": 0.5},
    "step": {"n_seeds": 2, "segment_s": 20.0},
    "switching": {"n_seeds": 2, "duration_s": 1.0},
    "estimation": {"n_seeds": 1, "positions": [15.0, 25.0], "ramp_rate": 60.0, "settle_s": 0.05,
                   "window_s": 0.05, "timeout_s": 3.0},
    "grasp": {"setpoints": [1.0, 2.0], "n_trials": 2, "duration_s": 1.0, "settle_window_s": 0.1},
    "hardness": {"duration_s": 4.0, "ramp_rate": 30.0},
}


@pytest.mark.parametrize("sigmas", [(0.02, 0.05), (0.02, 0.0), (0.0, 0.05), (0.0, 0.0)])
def test_each_kernel_draws_the_noise_it_reads(sigmas, tmp_path, monkeypatch):
    # per stream: its readers' most senses x its noisy channels, rounded up to
    # even (Box-Muller pairs stay whole); the grasp lanes of one plant seed
    # share a stream and read it in lockstep
    noise_sigma, angle_noise_sigma = sigmas
    spec = {**SMALL_RUNS, "plant": {"noise_sigma": noise_sigma, "angle_noise_sigma": angle_noise_sigma}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(config_from_dict(spec))))
    drawn, senses = {}, {}  # stream -> values drawn; plant -> its senses

    class CountedStream(GaussStream):
        __slots__ = ()

        def __init__(self, rng):
            drawn[self] = 0
            super().__init__(rng)

        def _draw(self, *args):
            block = super()._draw(*args)
            drawn[self] += len(block)
            return block

    real_sense = FingerPlant.sense

    def sense(plant, angle, force):
        senses[plant] = senses.get(plant, 0) + 1
        return real_sense(plant, angle, force)

    monkeypatch.setattr("softgrip.plant.GaussStream", CountedStream)
    monkeypatch.setattr(FingerPlant, "sense", sense)
    for command in (["calibrate"], *(["run", e] for e in ("step", "switch", "grasp", "hardness", "estimate"))):
        assert main([*command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    channels = (noise_sigma > 0.0) + (angle_noise_sigma > 0.0)
    read = dict.fromkeys(drawn, 0)  # stream -> the most senses of one of its readers
    for plant, count in senses.items():
        read[plant.noise] = max(read[plant.noise], count)
    # 3 calibrated fingers per command, 2 step and 2 switch runs, 18 grasp
    # plant seeds (3 objects x 2 trials x 3 fingers), 2 hardness probes, and 2
    # estimation cells besides their 2 presses, which step but never sense
    assert len(read) == 6 * 3 + 2 + 2 + 18 + 2 + 2 + 2
    assert 2 * max(read.values()) > MAX_NOISE_BLOCK  # with both channels on, a step run draws two blocks
    assert {id(s): drawn[s] for s in drawn} == {id(s): -(-n * channels // 2) * 2 for s, n in read.items()}
