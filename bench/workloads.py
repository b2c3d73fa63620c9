"""The benchmark's workloads and the code that runs one round of one of them.

A round runs every command of a workload once, each in a fresh interpreter
(``child.py``), one at a time, with ``--jobs 1`` and the workload seed.
Each command writes under its own ``--out`` directory; the per-process
timings go to a file beside that tree, never into it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

# A command that has not finished by then has hung; a whole round takes seconds.
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """A workload's commands; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    commands: tuple  # (label, softgrip arguments before --out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grasp-sweep", (("grasp", ("run", "grasp")),)),
        Workload(
            "trace-export",
            (
                ("calibrate", ("calibrate",)),
                ("step", ("run", "step")),
                ("switch", ("run", "switch")),
                ("hardness", ("run", "hardness")),
            ),
        ),
        Workload("estimate-sweep", (("estimate", ("run", "estimate")),)),
    )
}


def check_source_tree() -> str | None:
    """The reason the package cannot be run from this checkout, or None."""
    if not (SRC / "softgrip" / "cli.py").is_file():
        return f"no softgrip package under {SRC.relative_to(ROOT)}/ in {ROOT}"
    return None


def source_digest() -> str:
    """sha256 over the package sources: names the program version without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "softgrip").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SOFTGRIP_LOG", None)
    return env


def run_command(args: list, timing_path: Path, trace: bool, run_id: str) -> dict:
    """Run one softgrip command in a fresh process; returns its timing record.

    ``wall_s`` runs from just before the spawn to the reaped exit, and
    ``setup_s`` from the spawn to the config validated, both on
    CLOCK_MONOTONIC, which every process shares.
    """
    argv = [sys.executable, str(CHILD), str(timing_path), "1" if trace else "0", run_id, "--", *args]
    spawn = time.monotonic()
    proc = subprocess.run(
        argv,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=COMMAND_TIMEOUT_S,
    )
    exit_time = time.monotonic()
    record = {"args": args, "exit_code": proc.returncode, "wall_s": exit_time - spawn}
    if proc.returncode != 0 or not timing_path.is_file():
        record["exit_code"] = proc.returncode or 1
        record["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
        return record
    with open(timing_path) as fh:
        marks = json.load(fh)
    timing_path.unlink()
    record.update(
        setup_s=marks["validated"] - spawn,
        calibrate_s=marks["calibrate_s"],
        simulate_s=marks["simulate_s"],
        write_s=marks["main_end"] - marks["validated"] - marks["calibrate_s"] - marks["simulate_s"],
        max_rss_mb=marks["max_rss_mb"],
    )
    if "trace" in marks:
        record["trace"] = marks["trace"]
    return record


def run_round(
    workload: Workload, seed: int, out_root: Path, trace: bool, run_id: str, reference=None
) -> list:
    """Run every command of ``workload`` once; outputs go to ``out_root/<label>``.

    ``reference``, if given, is a callable returning seconds; it runs before
    every command and after the last, and each record gets the mean of the
    two runs around its command as ``reference_s``.
    """
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)
    records = []
    before = reference() if reference else None
    for k, (label, args) in enumerate(workload.commands):
        full = [*args, "--out", str(out_root / label), "--seed", str(seed), "--jobs", "1"]
        timing_path = out_root.parent / f"{out_root.name}.{label}.timing.json"
        record = run_command(full, timing_path, trace, f"{run_id}-c{k}-{label}")
        if reference:
            after = reference()
            record["reference_s"] = (before + after) / 2.0
            before = after
        records.append(record)
    return records
