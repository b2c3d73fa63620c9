"""Correctness checks on the files a workload wrote, made apart from the program.

Every check recomputes what it compares against with the benchmark's own
code (a numpy least-squares fit, the plant recurrences written out again, a
±5 % band and RMS) or tests a property the method must have.  None compares
against a stored copy of earlier output.  Each ``check_*`` function returns
a list of problems; an empty list means the outputs passed.

The config every check reads is the one the command recorded in its
``manifest.json``; the benchmark passes no config, so it is the default.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

# Relative agreement required between the report's fit and an independent one.
# Measured: <= 3e-13 for the selected degree on the default 700-sample set.
FIT_RTOL = 1e-9
BAND = 0.05
SETTLE_MAX_S = 2.0
RMS_MAX_N = 0.1
OVERSHOOT_MAX = 0.05
ESTIMATE_ERROR_N = 0.15
ESTIMATE_WITHIN_SHARE = 0.95
SIGMA2_FLOOR = 1e-12  # the variance floor the BIC is defined with


def load_config(out: Path) -> dict:
    with open(out / "manifest.json") as fh:
        return json.load(fh)["config"]


def _ticks(seconds: float, dt: float) -> int:
    return int(round(seconds / dt))


# ---------------------------------------------------------------------------
# Work each workload does, from the config


def calibration_ticks(cfg: dict) -> int:
    """Finger-ticks of one calibration: 3 fingers of staircase cycles."""
    cal, dt = cfg["calibration"], cfg["controller"]["period"]
    hold = max(1, _ticks(cal["hold_s"], dt))
    rest = max(1, _ticks(cal["rest_s"], dt))
    return 3 * cal["cycles"] * ((2 * cal["levels"] - 1) * hold + rest)


def grasp_ticks(cfg: dict) -> int:
    g = cfg["grasp"]
    trials = len(g["objects"]) * len(g["setpoints"]) * g["n_trials"]
    return trials * 3 * _ticks(g["duration_s"], cfg["controller"]["period"])


def export_ticks(cfg: dict) -> int:
    """Simulate-phase finger-ticks of ``run step``, ``run switch`` and ``run hardness``."""
    dt = cfg["controller"]["period"]
    step, sw, hard = cfg["step"], cfg["switching"], cfg["hardness"]
    return (
        step["n_seeds"] * _ticks(2.0 * step["segment_s"], dt)
        + sw["n_seeds"] * _ticks(sw["duration_s"], dt)
        + 2 * _ticks(hard["duration_s"], dt)
    )


def _plant_advance(cfg: dict, pressure: float, duty: float, obj) -> tuple:
    """One plant step written out again: (pressure, angle, true contact force)."""
    pc = cfg["plant"]
    dt = cfg["controller"]["period"]
    pressure += (dt / pc["tau_p"]) * (pc["k_duty"] * duty - pressure)
    if pressure < 0.0:
        pressure = 0.0
    free = min(pc["bend_gain"] * pressure, pc["angle_max"])
    if obj is not None and free > obj[0]:
        position, stiffness = obj
        kf = pc["finger_stiffness"]
        share = kf / (kf + stiffness) if stiffness > 0.0 else 1.0
        angle = position + (free - position) * share
        return pressure, angle, stiffness * (angle - position)
    return pressure, free, 0.0


def estimation_cell(cfg: dict, position: float) -> tuple:
    """(finger-ticks, mean true force or None) of one press/settle/measure cell.

    The plant state follows the duty alone (noise enters only the sensors),
    so the cell's length and its true force follow from the config.
    """
    est, dt = cfg["estimation"], cfg["controller"]["period"]
    obj = (position, est["scale_stiffness"])
    pressure, _, force = _plant_advance(cfg, 0.0, 0.0, None)
    duty, phase = 0.0, "press"
    hold, window = _ticks(est["settle_s"], dt), _ticks(est["window_s"], dt)
    acc, count, ticks = 0.0, 0, 0
    for _ in range(_ticks(est["timeout_s"], dt)):
        ticks += 1
        if phase == "press":
            if force >= est["target"]:
                phase = "settle"
            elif duty >= 100.0:
                return ticks, None
            else:
                duty = min(100.0, duty + est["ramp_rate"] * dt)
        elif phase == "settle":
            hold -= 1
            if hold <= 0:
                phase = "measure"
        else:
            acc += force
            count += 1
            window -= 1
            if window <= 0:
                break
        pressure, _, force = _plant_advance(cfg, pressure, duty, obj)
    return ticks, (acc / count if count else None)


def estimate_ticks(cfg: dict) -> int:
    est = cfg["estimation"]
    return est["n_seeds"] * sum(estimation_cell(cfg, p)[0] for p in est["positions"])


# ---------------------------------------------------------------------------
# grasp-sweep


def check_grasp(out: Path) -> list:
    cfg = load_config(out)
    g = cfg["grasp"]
    with open(out / "grasp_sweep.json") as fh:
        rows = json.load(fh)["rows"]
    problems = []
    expected = len(g["objects"]) * len(g["setpoints"])
    if len(rows) != expected:
        problems.append(f"grasp: {len(rows)} rows, expected {expected}")
    for r in rows:
        if r["n_trials"] != g["n_trials"]:
            problems.append(f"grasp: {r['object']} @ {r['target_force']} has {r['n_trials']} trials")
    by_object: dict = {}
    for r in rows:
        by_object.setdefault(r["object"], []).append(r)
    # trials draw their thresholds independently of the set-point, so a
    # firmer grip can only hold more and deform more, trial by trial
    for name in ("plastic_cup", "paper_cup"):
        series = sorted(by_object.get(name, []), key=lambda r: r["target_force"])
        if not series:
            problems.append(f"grasp: no rows for {name}")
        for a, b in zip(series, series[1:]):
            if b["dropped_pct"] > a["dropped_pct"]:
                problems.append(
                    f"grasp: {name} dropped rises {a['dropped_pct']} -> {b['dropped_pct']} "
                    f"from {a['target_force']} N to {b['target_force']} N"
                )
            if b["deformed_pct"] < a["deformed_pct"]:
                problems.append(
                    f"grasp: {name} deformed falls {a['deformed_pct']} -> {b['deformed_pct']} "
                    f"from {a['target_force']} N to {b['target_force']} N"
                )
    for r in by_object.get("eggshell", []):
        if r["broken_pct"] != 0.0:
            problems.append(f"grasp: eggshell broken {r['broken_pct']} % at {r['target_force']} N")
    top = [r for r in by_object.get("plastic_cup", []) if r["target_force"] == 4.0]
    if len(top) != 1 or top[0]["dropped_pct"] != 0.0 or top[0]["deformed_pct"] != 100.0:
        problems.append(f"grasp: plastic_cup at 4 N is not 0 % dropped and 100 % deformed: {top}")
    return problems


# ---------------------------------------------------------------------------
# trace-export


def _read_samples(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return (
        np.array([float(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
    )


def _bic(n: int, degree: int, rss: float) -> float:
    sigma2 = max(rss / n, SIGMA2_FLOOR)
    return math.log(n) * (degree + 1) + n * (math.log(2.0 * math.pi * sigma2) + 1.0)


def check_calibration(out: Path) -> list:
    """Refit every sample set and recompute BIC per degree; compare with the report."""
    cfg = load_config(out)
    problems = []
    for finger in (1, 2, 3):
        x, y = _read_samples(out / f"samples_finger{finger}.csv")
        with open(out / f"calibration_finger{finger}.json") as fh:
            report = json.load(fh)
        n = len(x)
        fits, bics = {}, {}
        for degree in range(cfg["calibration"]["max_degree"] + 1):
            w = npoly.polyfit(x, y, degree)
            fits[degree] = w
            bics[degree] = _bic(n, degree, float(np.sum((npoly.polyval(x, w) - y) ** 2)))
        best = min(bics, key=lambda d: (bics[d], d))
        where = f"calibration finger {finger}"
        if report["n_samples"] != n:
            problems.append(f"{where}: n_samples {report['n_samples']} but {n} samples written")
        if report["selected_degree"] != best:
            problems.append(f"{where}: selected degree {report['selected_degree']}, BIC argmin is {best}")
        for rec in report["records"]:
            d = rec["degree"]
            if d not in bics or rec["bic"] is None:
                problems.append(f"{where}: unexpected record for degree {d}")
            elif not math.isclose(rec["bic"], bics[d], rel_tol=FIT_RTOL):
                problems.append(f"{where}: degree {d} BIC {rec['bic']} vs recomputed {bics[d]}")
        chosen = next((r for r in report["records"] if r["degree"] == report["selected_degree"]), None)
        if chosen is None or chosen["weights"] is None:
            problems.append(f"{where}: no weights for the selected degree")
            continue
        ref = fits.get(chosen["degree"])
        got = np.array(chosen["weights"])
        if ref is None or got.shape != ref.shape:
            problems.append(f"{where}: selected weights have the wrong length")
        elif np.max(np.abs(got - ref) / np.abs(ref)) > FIT_RTOL:
            problems.append(f"{where}: selected weights differ from an independent fit: {got} vs {ref}")
    return problems


def read_trace(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*reader)) or [()] * len(header)
    trace = {name: [float(v) for v in col] for name, col in zip(header[:8], cols[:8])}
    trace["mode"] = list(cols[8]) if len(cols) > 8 else []
    return trace


def _trace_files(cfg: dict, root: Path) -> list:
    """(path, object (position, stiffness) or None, expected rows) for every trace."""
    dt = cfg["controller"]["period"]
    step, sw, hard = cfg["step"], cfg["switching"], cfg["hardness"]
    cal_rows = calibration_ticks(cfg) // 3
    files = [(root / "calibrate" / f"calibration_trace_finger{f}.csv", None, cal_rows) for f in (1, 2, 3)]
    step_obj = (step["object"]["position_angle"], step["object"]["stiffness"])
    files += [
        (root / "step" / f"step_trace_seed{k}.csv", step_obj, _ticks(2.0 * step["segment_s"], dt))
        for k in range(step["n_seeds"])
    ]
    sw_obj = (sw["object"]["position_angle"], sw["object"]["stiffness"])
    files += [
        (root / "switch" / f"switch_trace_seed{k}.csv", sw_obj, _ticks(sw["duration_s"], dt))
        for k in range(sw["n_seeds"])
    ]
    for label in ("stiff", "soft"):
        obj = (hard["position_angle"], hard[f"{label}_stiffness"])
        files.append((root / "hardness" / f"hardness_trace_{label}.csv", obj, _ticks(hard["duration_s"], dt)))
    return files


def check_trace_rows(path: Path, trace: dict, cfg: dict, obj, expected_rows: int) -> list:
    """Row-by-row laws every trace obeys exactly (the CSV holds ``repr`` floats)."""
    pc = cfg["plant"]
    gain = cfg["controller"]["period"] / pc["tau_p"]
    k_duty = pc["k_duty"]
    name = f"{path.parent.name}/{path.name}"
    problems = []
    n = len(trace["t"])
    if n != expected_rows or len(trace["mode"]) != n:
        problems.append(f"{name}: {n} rows, expected {expected_rows}")
    f_m, f_i, f_c = trace["f_m"], trace["f_i_pred"], trace["f_c_est"]
    p, duty, angle, f_true = trace["pressure_kpa"], trace["duty"], trace["angle_deg"], trace["f_c_true"]
    for i in range(n):
        if f_c[i] != f_m[i] - f_i[i]:
            problems.append(f"{name} row {i}: f_c_est {f_c[i]!r} != f_m - f_i_pred {f_m[i] - f_i[i]!r}")
        if i:
            expect = p[i - 1] + gain * (k_duty * duty[i] - p[i - 1])
            if p[i] != max(0.0, expect):
                problems.append(f"{name} row {i}: pressure {p[i]!r} breaks the lag recurrence ({expect!r})")
        if obj is not None and angle[i] > obj[0]:
            expect = obj[1] * (angle[i] - obj[0])
        else:
            expect = 0.0
        if f_true[i] != expect:
            problems.append(f"{name} row {i}: f_c_true {f_true[i]!r} breaks the contact law ({expect!r})")
        if len(problems) > 10:
            problems.append(f"{name}: further rows not checked")
            break
    return problems


def segment_metrics(trace: dict, target: float, t0: float, t1: float) -> dict:
    """Settling into the ±5 % band (held to the segment end), overshoot, post-settle RMS."""
    idx = [i for i, t in enumerate(trace["t"]) if t0 <= t < t1]
    true, est = trace["f_c_true"], trace["f_c_est"]
    lo, hi = target * (1.0 - BAND), target * (1.0 + BAND)
    settle = None
    for i in reversed(idx):
        if not lo <= true[i] <= hi:
            break
        settle = i
    if not idx or settle is None:
        return {"settled": False}
    transient = [true[i] for i in idx if i <= settle]
    if true[idx[0]] <= target:
        overshoot = max(0.0, max(transient) - target) / target
    else:
        overshoot = max(0.0, target - min(transient)) / target
    post = [est[i] - target for i in idx if i >= settle]
    return {
        "settled": True,
        "settling_s": trace["t"][settle] - t0,
        "overshoot": overshoot,
        "rms": math.sqrt(sum(e * e for e in post) / len(post)),
    }


def _segment_problems(name: str, m: dict, check_overshoot: bool) -> list:
    if not m["settled"]:
        return [f"{name}: never settles in the ±5 % band"]
    problems = []
    if m["settling_s"] > SETTLE_MAX_S:
        problems.append(f"{name}: settles after {m['settling_s']:.3f} s")
    if m["rms"] > RMS_MAX_N:
        problems.append(f"{name}: post-settle RMS {m['rms']:.4f} N")
    if check_overshoot and m["overshoot"] > OVERSHOOT_MAX:
        problems.append(f"{name}: overshoot {m['overshoot']:.3%}")
    return problems


def check_trace_export(root: Path) -> list:
    """Checks for ``calibrate`` + ``run step|switch|hardness`` under ``root/<label>``."""
    problems = check_calibration(root / "calibrate")
    cfg = load_config(root / "calibrate")
    step, sw = cfg["step"], cfg["switching"]
    for path, obj, rows in _trace_files(cfg, root):
        trace = read_trace(path)
        problems += check_trace_rows(path, trace, cfg, obj, rows)
        kind = path.parent.name
        if kind == "step":
            seg = step["segment_s"]
            for target, t0, t1 in ((step["first_target"], 0.0, seg), (step["second_target"], seg, 2 * seg)):
                m = segment_metrics(trace, target, t0, t1)
                problems += _segment_problems(f"{path.name} [{t0}, {t1})", m, False)
        elif kind == "switch":
            modes = trace["mode"]
            changes = [(a, b) for a, b in zip(modes, modes[1:]) if a != b]
            if not modes or modes[0] != "approach" or changes != [("approach", "force_control")]:
                problems.append(f"{path.name}: mode changes {changes}, expected one approach -> force_control")
                continue
            t_switch = trace["t"][modes.index("force_control")]
            m = segment_metrics(trace, sw["target"], t_switch, sw["duration_s"])
            problems += _segment_problems(f"{path.name} after the switch", m, True)
    with open(root / "hardness" / "hardness_result.json") as fh:
        hardness = json.load(fh)
    for label in ("stiff", "soft"):
        got = hardness.get(label, {}).get("classification")
        if got != label:
            problems.append(f"hardness: the {label} object is labelled {got!r}")
    return problems


# ---------------------------------------------------------------------------
# estimate-sweep


def estimation_rows(out: Path) -> list:
    with open(out / "estimation_errors.json") as fh:
        return json.load(fh)["rows"]


def check_estimate(out: Path) -> list:
    """Rows complete and consistent, true forces as the plant gives them, errors in band.

    Flagged rows are failed operations and are counted, not checked.
    """
    cfg = load_config(out)
    est = cfg["estimation"]
    rows = estimation_rows(out)
    problems = []
    expected = est["n_seeds"] * len(est["positions"])
    if len(rows) != expected:
        problems.append(f"estimate: {len(rows)} rows, expected {expected}")
    true_force = {p: estimation_cell(cfg, p)[1] for p in est["positions"]}
    ok = [r for r in rows if r["flagged"] is None]
    for r in ok:
        where = f"estimate seed {r['seed']} @ {r['position_angle']} deg"
        if r["abs_error"] != abs(r["estimated"] - r["true_force"]):
            problems.append(f"{where}: abs_error {r['abs_error']!r} != |estimated - true_force|")
        if r["true_force"] != true_force.get(r["position_angle"]):
            problems.append(
                f"{where}: true_force {r['true_force']!r}, the plant gives {true_force.get(r['position_angle'])!r}"
            )
    within = sum(1 for r in ok if r["abs_error"] <= ESTIMATE_ERROR_N)
    if ok and within < ESTIMATE_WITHIN_SHARE * len(ok):
        problems.append(f"estimate: only {within}/{len(ok)} rows within {ESTIMATE_ERROR_N} N")
    return problems


def flagged_cells(out: Path) -> int:
    return sum(1 for r in estimation_rows(out) if r["flagged"] is not None)
