"""Run one ``softgrip`` command in this fresh process and record its timings.

Usage::

    python3 bench/child.py TIMING_JSON TRACE RUN_ID -- <softgrip arguments>

The package is imported from ``src`` (the parent sets ``PYTHONPATH``).  A
few coarse public entry points are wrapped to split the command into phases,
all on ``time.monotonic`` (CLOCK_MONOTONIC, shared by every process, so the
parent's spawn time and this process's marks share one clock):

- setup ends when ``validate`` (as ``cli`` looks it up) returns;
- calibrate is the time inside ``harness.run_calibration_experiment``;
- simulate is the time inside the experiment's ``harness.run_*`` call, minus
  the calibration inside it;
- write is the rest of ``cli.main`` after setup.

With TRACE=1 the public per-tick functions of every module are wrapped as
well (``Tracer``): calls and self time are aggregated per name, and spans are
kept only at phase and trial boundaries.  Timings go to TIMING_JSON, which
the parent keeps outside every ``--out`` tree.
"""

from __future__ import annotations

import json
import resource
import sys
import time


# the experiments' entry points, called by ``cli`` as ``harness.run_*``
RUN_FUNCTIONS = (
    "run_step_response",
    "run_switching_experiment",
    "run_grasp_sweep",
    "run_hardness_probe",
    "run_estimation_accuracy",
)


class Tracer:
    """Per-name call counts and self time, plus spans at coarse boundaries.

    Self time is a call's duration minus the part covered by wrapped calls
    made inside it.  Per-tick functions only add to the per-name totals; a
    span (name, start, end, parent, run id) is kept for the coarse functions
    alone, since one span per tick would mean millions of them.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.rows: dict[str, int] = {}
        self.spans: list[dict] = []
        self._inner = [0.0]  # wrapped-child time of each open call, outermost first
        self._open: list[int] = []  # indices of open spans

    def wrap(self, name: str, fn, span: bool = False):
        calls, self_s, inner, clock = self.calls, self.self_s, self._inner, time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0
        if not span:

            def traced(*args, **kwargs):
                inner.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    covered = inner.pop()
                    inner[-1] += elapsed
                    calls[name] += 1
                    self_s[name] += elapsed - covered

            return traced

        spans, open_spans, run_id = self.spans, self._open, self.run_id

        def spanned(*args, **kwargs):
            record = {
                "run": run_id,
                "name": name,
                "parent": open_spans[-1] if open_spans else None,
                "start": time.monotonic(),
                "end": None,
            }
            open_spans.append(len(spans))
            spans.append(record)
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                record["end"] = time.monotonic()
                open_spans.pop()
                covered = inner.pop()
                inner[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - covered

        return spanned

    def count_rows(self, name: str, fn):
        """Wrap ``Trace.to_csv``-like methods to add ``len(self)`` to ``rows``."""
        rows = self.rows
        rows[name] = 0

        def counted(obj, *args, **kwargs):
            rows[name] += len(obj)
            return fn(obj, *args, **kwargs)

        return counted

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "rows": self.rows, "spans": self.spans}


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public per-tick and coarse functions where callers look them up.

    ``harness`` and ``cli`` bind some functions as their own module globals,
    so those names are replaced in the caller's namespace; otherwise their
    counts would read zero.
    """
    from softgrip import calibration, cli, control, estimation, harness, plant

    w = tracer.wrap
    # per-tick functions: totals only
    plant.FingerPlant.sense = w("plant.FingerPlant.sense", plant.FingerPlant.sense)
    plant.FingerPlant.step = w("plant.FingerPlant.step", plant.FingerPlant.step)
    harness.shake_test = w("plant.shake_test", harness.shake_test)
    harness.contact_force = w("estimation.contact_force", harness.contact_force)
    estimation.ContactDetector.update = w(
        "estimation.ContactDetector.update", estimation.ContactDetector.update
    )
    control.Supervisor.step = w("control.Supervisor.step", control.Supervisor.step)
    control.PiController.step = w("control.PiController.step", control.PiController.step)
    harness.Trace.append = w("harness.Trace.append", harness.Trace.append)
    harness.derive_seed = w("seeding.derive_seed", harness.derive_seed)
    calibration.fit_polynomial = w("calibration.fit_polynomial", calibration.fit_polynomial)
    # phase and trial boundaries: totals and spans
    harness.grasp_trial = w("harness.grasp_trial", harness.grasp_trial, span=True)
    harness.calibrate_finger = w("harness.calibrate_finger", harness.calibrate_finger, span=True)
    calibration.select_model = w("calibration.select_model", calibration.select_model, span=True)
    harness.Trace.to_csv = w(
        "harness.Trace.to_csv",
        tracer.count_rows("harness.Trace.to_csv", harness.Trace.to_csv),
        span=True,
    )
    cli.save_samples = w("calibration.save_samples", cli.save_samples, span=True)
    cli.save_report = w("calibration.save_report", cli.save_report, span=True)
    cli.validate = w("config.validate", cli.validate, span=True)
    for name in RUN_FUNCTIONS + ("run_calibration_experiment",):
        setattr(harness, name, w(f"harness.{name}", getattr(harness, name), span=True))


def install_phase_timers(marks: dict) -> None:
    """Wrap the coarse entry points that bound the calibrate and simulate phases."""
    from softgrip import cli, harness

    validate = cli.validate

    def timed_validate(cfg):
        try:
            return validate(cfg)
        finally:
            marks.setdefault("validated", time.monotonic())

    cli.validate = timed_validate

    calibrate = harness.run_calibration_experiment

    def timed_calibrate(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return calibrate(*args, **kwargs)
        finally:
            marks["calibrate_s"] += time.monotonic() - t0

    harness.run_calibration_experiment = timed_calibrate

    def timed_run(fn):
        def run(*args, **kwargs):
            cal0 = marks["calibrate_s"]
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                marks["simulate_s"] += time.monotonic() - t0 - (marks["calibrate_s"] - cal0)

        return run

    for name in RUN_FUNCTIONS:
        setattr(harness, name, timed_run(getattr(harness, name)))


def main() -> int:
    timing_path, trace, run_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py TIMING_JSON TRACE RUN_ID -- <softgrip arguments>")
    cli_args = sys.argv[5:]

    from softgrip import cli

    marks = {"calibrate_s": 0.0, "simulate_s": 0.0}
    install_phase_timers(marks)
    tracer = None
    if trace:
        tracer = Tracer(run_id)
        install_tracer(tracer)
        entry = tracer.wrap("cli.main", cli.main, span=True)
    else:
        entry = cli.main

    marks["main_start"] = time.monotonic()
    code = entry(cli_args)
    marks["main_end"] = time.monotonic()
    marks["exit_code"] = code
    marks["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        marks["trace"] = tracer.to_dict()
    with open(timing_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
