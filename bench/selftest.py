"""Show that every correctness check rejects a corrupted output.

Usage (from the repository root)::

    python3 bench/selftest.py [--seed 12345]

Runs one round of each workload, confirms that its checks pass on the
pristine outputs, then corrupts a copy of the outputs one way at a time and
confirms that the checks report a problem for each corruption.  Exits 1 if a
pristine output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import checks
from workloads import BENCH_DIR, WORKLOADS, check_source_tree, run_round


def _edit_json(path: Path, edit) -> None:
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _edit_csv_cell(path: Path, row: int, column: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = edit(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _nudge(text: str) -> str:
    return repr(float(text) * (1.0 + 1e-12) + 1e-15)


def _grasp_row(data: dict, name: str, force: float) -> dict:
    return next(r for r in data["rows"] if r["object"] == name and r["target_force"] == force)


def _raise_dropped(data: dict) -> None:
    # a firmer grip that drops more than a looser one: a non-monotone sweep row
    _grasp_row(data, "paper_cup", 3.0)["dropped_pct"] = _grasp_row(data, "paper_cup", 2.0)["dropped_pct"] + 10.0


def _lower_deformed(data: dict) -> None:
    _grasp_row(data, "plastic_cup", 3.0)["deformed_pct"] = _grasp_row(data, "plastic_cup", 2.0)["deformed_pct"] - 10.0


def _swap_degree(data: dict) -> None:
    data["selected_degree"] = 5 if data["selected_degree"] != 5 else 4


def _scale_weight(data: dict) -> None:
    weights = data["records"][data["selected_degree"]]["weights"]
    weights[0] *= 1.001


def _flip_switch_mode(path: Path) -> None:
    _edit_csv_cell(path, 899, "mode", lambda _: "approach")


def _drop_last_row(path: Path) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _edit_csv(path: Path, edit) -> None:
    """Apply ``edit(row_dict)`` to every data row of a trace CSV."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    for row in rows:
        edit(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def _offset_estimate(row: dict) -> None:
    # measured and estimated force move together, so f_c_est = f_m - f_i_pred holds
    row["f_m"] = repr(float(row["f_m"]) + 0.2)
    row["f_c_est"] = repr(float(row["f_m"]) - float(row["f_i_pred"]))


def _overshoot_spike(path: Path, target: float, position: float, stiffness: float) -> None:
    """Push the true force 20 % past the target 20 ticks after the switch.

    The angle moves with it, so the contact law still holds on that row.
    """
    state = {"after": None}

    def edit(row: dict) -> None:
        if row["mode"] == "force_control" and state["after"] is None:
            state["after"] = 0
        if state["after"] is not None:
            state["after"] += 1
            if state["after"] == 20:
                angle = position + 1.2 * target / stiffness
                row["angle_deg"] = repr(angle)
                row["f_c_true"] = repr(stiffness * (angle - position))

    _edit_csv(path, edit)


def _shift_true_force(data: dict) -> None:
    row = data["rows"][3]
    row["true_force"] *= 1.01
    row["abs_error"] = abs(row["estimated"] - row["true_force"])


def _push_out_of_band(data: dict) -> None:
    for row in data["rows"][:10]:
        row["estimated"] = row["true_force"] + 0.2
        row["abs_error"] = abs(row["estimated"] - row["true_force"])


# (what is corrupted, the file, how, a phrase the check must report)
CORRUPTIONS = {
    "grasp-sweep": [
        ("non-monotone dropped % row", "grasp/grasp_sweep.json", lambda p: _edit_json(p, _raise_dropped), "dropped rises"),
        ("non-monotone deformed % row", "grasp/grasp_sweep.json", lambda p: _edit_json(p, _lower_deformed), "deformed falls"),
        (
            "broken eggshell",
            "grasp/grasp_sweep.json",
            lambda p: _edit_json(p, lambda d: _grasp_row(d, "eggshell", 4.0).update(broken_pct=10.0)),
            "eggshell broken",
        ),
        ("missing sweep row", "grasp/grasp_sweep.json", lambda p: _edit_json(p, lambda d: d["rows"].pop()), "rows, expected"),
    ],
    "trace-export": [
        ("swapped selected degree", "calibrate/calibration_finger2.json", lambda p: _edit_json(p, _swap_degree), "BIC argmin"),
        ("perturbed report weight", "calibrate/calibration_finger1.json", lambda p: _edit_json(p, _scale_weight), "weights differ"),
        (
            "perturbed sample",
            "calibrate/samples_finger3.csv",
            lambda p: _edit_csv_cell(p, 100, "force_n", lambda v: repr(float(v) + 0.05)),
            "vs recomputed",
        ),
        ("perturbed f_c_est value", "step/step_trace_seed2.csv", lambda p: _edit_csv_cell(p, 1234, "f_c_est", _nudge), "f_m - f_i_pred"),
        ("perturbed pressure value", "switch/switch_trace_seed4.csv", lambda p: _edit_csv_cell(p, 300, "pressure_kpa", _nudge), "lag recurrence"),
        ("perturbed f_c_true value", "hardness/hardness_trace_stiff.csv", lambda p: _edit_csv_cell(p, 400, "f_c_true", _nudge), "contact law"),
        (
            "perturbed calibration trace value",
            "calibrate/calibration_trace_finger1.csv",
            lambda p: _edit_csv_cell(p, 5000, "f_i_pred", _nudge),
            "f_m - f_i_pred",
        ),
        ("missing trace row", "step/step_trace_seed0.csv", _drop_last_row, "rows, expected"),
        ("step estimate off by 0.2 N", "step/step_trace_seed1.csv", lambda p: _edit_csv(p, _offset_estimate), "post-settle RMS"),
        ("overshoot after the switch", "switch/switch_trace_seed3.csv", lambda p: _overshoot_spike(p, 2.5, 6.0, 0.28), "overshoot"),
        ("second mode change", "switch/switch_trace_seed0.csv", _flip_switch_mode, "mode changes"),
        (
            "swapped hardness labels",
            "hardness/hardness_result.json",
            lambda p: _edit_json(p, lambda d: d.update(stiff=d["soft"], soft=d["stiff"])),
            "labelled",
        ),
    ],
    "estimate-sweep": [
        (
            "abs_error inconsistent",
            "estimate/estimation_errors.json",
            lambda p: _edit_json(p, lambda d: d["rows"][17].update(abs_error=d["rows"][17]["abs_error"] + 1e-9)),
            "!= |estimated - true_force|",
        ),
        ("true force off the plant", "estimate/estimation_errors.json", lambda p: _edit_json(p, _shift_true_force), "the plant gives"),
        ("errors out of band", "estimate/estimation_errors.json", lambda p: _edit_json(p, _push_out_of_band), "within 0.15"),
        ("missing row", "estimate/estimation_errors.json", lambda p: _edit_json(p, lambda d: d["rows"].pop()), "rows, expected"),
    ],
}

CHECKS = {
    "grasp-sweep": lambda root: checks.check_grasp(root / "grasp"),
    "trace-export": checks.check_trace_export,
    "estimate-sweep": lambda root: checks.check_estimate(root / "estimate"),
}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="Show that every check rejects a corrupted output.")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args(argv)
    problem = check_source_tree()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    work = BENCH_DIR / ".work" / "selftest"
    failures = 0
    try:
        for name, workload in WORKLOADS.items():
            pristine = work / name
            records = run_round(workload, args.seed, pristine, False, f"selftest-{name}")
            if any(r["exit_code"] != 0 for r in records):
                print(f"FAIL {name}: a command exited non-zero")
                failures += 1
                continue
            found = CHECKS[name](pristine)
            print(f"{'PASS' if not found else 'FAIL'} {name}: pristine outputs pass {found[:3]}")
            failures += bool(found)
            for label, rel, corrupt, phrase in CORRUPTIONS[name]:
                copy = work / "corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(pristine, copy)
                corrupt(copy / rel)
                hits = [p for p in CHECKS[name](copy) if phrase in p]
                print(f"{'PASS' if hits else 'FAIL'} {name}: {label} rejected" + (f": {hits[0]}" if hits else ""))
                failures += not hits
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
