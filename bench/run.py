"""Benchmark of the softgrip finger-tick pipeline, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload grasp-sweep --seed 12345 --seconds 35 --trace 0

Runs rounds of the workload's ``softgrip`` commands, each in a fresh
interpreter, until ``--seconds`` have passed, then checks the outputs of the
first round (``checks.py``) and that every round wrote the same bytes.
Reports every metric listed in ``BENCHMARK.json``: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1`` (which runs each round
untraced and then traced, and reports the tracing overhead as the difference
of their wall times).  Times are the median over rounds, in reference
seconds (``reference_loop``).  The last line of standard output is one
JSON object; the full record, with the environment, every round's raw
timings, output digests and trace spans, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import checks
from workloads import BENCH_DIR, ROOT, WORKLOADS, check_source_tree, digest_tree, run_round, source_digest

RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

# About what ``reference_loop`` takes on the 2-CPU VM the bounds were set
# on (Python 3.11) when nothing else slows it; turns ratios into seconds.
REFERENCE_S = 0.1


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop like the tick code.

    Timed just before and just after every command, it says how fast the
    machine runs right then.  Each of a command's times is reported in
    reference seconds, ``time * REFERENCE_S / reference``, where
    ``reference`` is the mean of the loop's two times around the command.
    On a shared machine other tenants slow this one by up to 2x, in bursts
    of seconds and in shifts that last minutes; the ratio cancels most of
    that (README.md, "Steadiness").
    """
    rng = random.Random(1)
    acc = p = 0.0
    t0 = time.perf_counter()
    for i in range(200_000):
        p += 0.5 * (0.65 * (i % 100) - p)
        acc += rng.gauss(0.0, 1.0) * p
    return time.perf_counter() - t0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def sub_operations(label: str, out: Path) -> int:
    """Grasp trials or estimation cells a command attempts, from its manifest config."""
    if label not in ("grasp", "estimate"):
        return 0
    cfg = checks.load_config(out)
    if label == "grasp":
        g = cfg["grasp"]
        return len(g["objects"]) * len(g["setpoints"]) * g["n_trials"]
    est = cfg["estimation"]
    return est["n_seeds"] * len(est["positions"])


def simulate_ticks(workload: str, cfg: dict) -> int:
    return {
        "grasp-sweep": checks.grasp_ticks,
        "trace-export": checks.export_ticks,
        "estimate-sweep": checks.estimate_ticks,
    }[workload](cfg)


def run_checks(workload: str, out_root: Path) -> list:
    if workload == "grasp-sweep":
        return checks.check_grasp(out_root / "grasp")
    if workload == "trace-export":
        return checks.check_trace_export(out_root)
    return checks.check_estimate(out_root / "estimate")


def tally(records: list, commands: tuple, out_root: Path, sub_ops: dict) -> tuple:
    """(attempted, failed) for one round: commands plus their trials or cells.

    A command that exits non-zero fails with all its trials or cells; a
    flagged estimation row fails that cell.
    """
    attempted = failed = 0
    for rec, (label, _) in zip(records, commands):
        n = 1 + sub_ops[label]
        attempted += n
        if rec["exit_code"] != 0:
            failed += n
        elif label == "estimate":
            failed += checks.flagged_cells(out_root / label)
    return attempted, failed


def _scale(record: dict) -> float:
    """Reference seconds per wall-clock second while this command ran."""
    return REFERENCE_S / record["reference_s"]


def round_summary(records: list) -> dict:
    """A round's times in reference seconds, its peak memory, and whether it ran clean."""
    ok = all(r["exit_code"] == 0 for r in records)
    summary = {"wall_s": sum(_scale(r) * r["wall_s"] for r in records), "ok": ok}
    if ok:
        for key in ("calibrate_s", "simulate_s", "write_s"):
            summary[key] = sum(_scale(r) * r[key] for r in records)
        summary["peak_rss_mb"] = max(r["max_rss_mb"] for r in records)
        summary["setup_s"] = [_scale(r) * r["setup_s"] for r in records]
    return summary


def per_layer_values(traced: list, names: list) -> tuple:
    """Per-layer metrics over traced rounds, and problems if counts differ.

    Self times are in reference seconds, median over rounds; counts must
    repeat exactly.
    """
    problems = []
    totals = []
    for records in traced:
        merged: dict = {}
        for rec in records:
            tr = rec.get("trace")
            if tr is None:
                continue
            for stat in ("calls", "self_s", "rows"):
                for fn, value in tr[stat].items():
                    key = f"{fn}.{stat}"
                    merged[key] = merged.get(key, 0) + (_scale(rec) * value if stat == "self_s" else value)
        totals.append(merged)
    values = {}
    for name in names:
        series = [t[name] for t in totals if name in t]
        if not series:
            problems.append(f"per-layer metric {name} not recorded")
            continue
        if name.endswith(".self_s"):
            values[name] = statistics.median(series)
            continue
        if len(set(series)) != 1:
            problems.append(f"per-layer count {name} differs between rounds: {series}")
        values[name] = series[0]
    return values, problems


def earlier_digests(env: dict, workload: str, seed: int) -> list:
    """Output digests of earlier runs of the same sources, workload and seed."""
    found = []
    for path in sorted(glob.glob(str(RESULTS_DIR / "*.json"))):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if (
            data.get("env", {}).get("source_sha256") == env["source_sha256"]
            and data.get("workload") == workload
            and data.get("seed") == seed
            and data.get("digests")
        ):
            found.append((Path(path).name, data["digests"]))
    return found


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run rounds until ``seconds`` have passed; check the outputs; return the record."""
    w = WORKLOADS[workload]
    rounds, traced, digests, problems = [], [], None, []
    attempted = failed = 0
    sub_ops = None
    first = work / "first"
    start = time.monotonic()
    k = 0
    while True:
        sides = [(False, first if k == 0 else work / "round")]
        if trace:
            sides.append((True, work / "traced"))
        for is_traced, out in sides:
            records = run_round(
                w, seed, out, is_traced, f"{workload}-s{seed}-r{k}{'t' if is_traced else ''}", reference_loop
            )
            for rec in records:
                if rec["exit_code"] != 0:
                    print(f"command {' '.join(rec['args'])} exited {rec['exit_code']}:\n{rec.get('stderr', '')}",
                          file=sys.stderr)
            if sub_ops is None and all(r["exit_code"] == 0 for r in records):
                sub_ops = {label: sub_operations(label, out / label) for label, _ in w.commands}
            if sub_ops is not None:
                a, f = tally(records, w.commands, out, sub_ops)
            else:
                a = f = len(records)
            attempted += a
            failed += f
            if all(r["exit_code"] == 0 for r in records):
                tree = digest_tree(out)
                if digests is None:
                    digests = tree
                elif tree != digests:
                    changed = sorted(n for n in set(tree) | set(digests) if tree.get(n) != digests.get(n))
                    problems.append(f"round {k}{' (traced)' if is_traced else ''} wrote other bytes: {changed}")
            (traced if is_traced else rounds).append(records)
            if out != first:
                shutil.rmtree(out, ignore_errors=True)
        k += 1
        if time.monotonic() - start >= seconds:
            break
    cfg = None
    if first.exists() and all(r["exit_code"] == 0 for r in rounds[0]):
        try:
            problems += run_checks(workload, first)
            cfg = checks.load_config(first / w.commands[0][0])
        except (OSError, LookupError, ValueError) as exc:  # missing or malformed output
            problems.append(f"outputs could not be checked: {exc!r}")
    return {
        "rounds": rounds,
        "traced": traced,
        "digests": digests,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "config": cfg,
        "measured_s": time.monotonic() - start,
    }


TIMES = ("setup_s", "calibrate_s", "simulate_s", "write_s", "wall_s")


def end_to_end(workload: str, rounds: list, cfg: dict | None) -> dict:
    """End-to-end metrics of a run: medians over rounds, times in reference seconds.

    ``setup_s`` is the median over all the run's processes.  The record also
    keeps the raw (unscaled) medians and minima and the round count.
    """
    summaries = [s for s in map(round_summary, rounds) if s["ok"]]
    if not summaries or cfg is None:
        return {}
    samples = {key: [s[key] for s in summaries] for key in TIMES if key != "setup_s"}
    samples["setup_s"] = [x for s in summaries for x in s["setup_s"]]
    values = {key: statistics.median(v) for key, v in samples.items()}
    values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in summaries)
    ticks = simulate_ticks(workload, cfg)
    values["finger_ticks_per_s"] = ticks / values["simulate_s"]
    values["finger_ticks"] = ticks
    if workload == "estimate-sweep":
        est = cfg["estimation"]
        values["estimation_cells_per_s"] = est["n_seeds"] * len(est["positions"]) / values["simulate_s"]
    clean = [records for records in rounds if all(r["exit_code"] == 0 for r in records)]
    raw = {key: [sum(r[key] for r in records) for records in clean] for key in TIMES if key != "setup_s"}
    raw["setup_s"] = [r["setup_s"] for records in clean for r in records]
    values["raw_seconds"] = {
        "median": {key: statistics.median(v) for key, v in raw.items()},
        "min": {key: min(v) for key, v in raw.items()},
    }
    references = [r["reference_s"] for records in rounds for r in records]
    values["reference_s"] = {"median": statistics.median(references), "min": min(references)}
    values["rounds"] = len(summaries)
    return values


def _without_trace(records: list) -> list:
    return [{k: v for k, v in r.items() if k != "trace"} for r in records]


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_source_tree()
    if problem is not None:
        print(f"error: {problem}; run the benchmark from a softgrip checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    env = environment()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = run["problems"]
    for name, digests in earlier_digests(env, args.workload, args.seed):
        if run["digests"] is not None and digests != run["digests"]:
            problems.append(f"outputs differ from the earlier run {name} of the same sources and seed")

    e2e = end_to_end(args.workload, run["rounds"], run["config"])
    metrics = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        values, more = per_layer_values(run["traced"], names)
        problems += more
        sense = values.get("plant.FingerPlant.sense.calls")
        if e2e:
            traced_wall = statistics.median(round_summary(r)["wall_s"] for r in run["traced"])
            values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
            calibrations = len(WORKLOADS[args.workload].commands)  # every command calibrates once
            expect = e2e["finger_ticks"] + calibrations * checks.calibration_ticks(run["config"])
            if sense != expect:
                problems.append(f"FingerPlant.sense ran {sense} times; the config gives {expect} finger-ticks")
        chosen = spec["per_layer"]
    else:
        values = e2e
        chosen = spec["end_to_end"]
    for m in chosen:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "problems": problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "end_to_end": e2e,
        "metrics": metrics,
        "digests": run["digests"],
        "measured_s": run["measured_s"],
        "rounds": [_without_trace(records) for records in run["rounds"]],
        "traced_rounds": [_without_trace(records) for records in run["traced"]],
        "trace": [[r.get("trace") for r in records] for records in run["traced"]],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    result_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(
        f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"git {env['git_sha'] or '-'}, source {env['source_sha256'][:12]}, loadavg {env['loadavg_at_start']}"
    )
    print(f"{args.workload} seed {args.seed}: {len(run['rounds'])} rounds in {run['measured_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "estimation_cells_per_s" in e2e and not args.trace:
        print(f"  estimation_cells_per_s = {e2e['estimation_cells_per_s']:.6g} 1/s")
    print(f"operations: {run['attempted']} attempted, {run['failed']} failed")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
