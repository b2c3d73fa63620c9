"""Command-line front end: run experiments, export traces and reports.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Progress
goes to stderr (level via the SOFTGRIP_LOG env var); machine-readable
outputs land only under --out.  Every run writes a manifest recording the
resolved config, seed, and produced files; re-running an experiment from its
manifest reproduces the outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__, harness
from .calibration import save_report, save_samples
from .config import Config, config_to_dict, default_config, load_config, validate
from .errors import ConfigError, SoftgripError

log = logging.getLogger("softgrip")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _setup_logging() -> None:
    level = os.environ.get("SOFTGRIP_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _json_dump(path: Path, payload) -> None:
    """Write ``payload`` as JSON; dataclasses inside it go out as their fields."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=vars)
        fh.write("\n")


def _resolve_config(args) -> Config:
    cfg = load_config(args.config) if args.config else default_config()
    problems = validate(cfg)
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _write_manifest(out_dir: Path, experiment: str, cfg: Config, outputs: list) -> None:
    manifest = {
        "experiment": experiment,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "outputs": sorted(outputs),
        "version": __version__,
    }
    _json_dump(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    """``--out``, made once the experiment has returned, so a failed run leaves none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_calibrate(args) -> int:
    cfg = _resolve_config(args)
    log.info("calibrating 3 fingers (seed %d)", cfg.seed)
    result = harness.run_calibration_experiment(cfg, with_trace=True)
    out = _out_dir(args)
    outputs = []
    for finger, (report, samples, trace) in enumerate(
        zip(result.reports, result.sample_sets, result.traces), start=1
    ):
        sname = f"samples_finger{finger}.csv"
        rname = f"calibration_finger{finger}.json"
        tname = f"calibration_trace_finger{finger}.csv"
        save_samples(out / sname, samples)
        save_report(out / rname, report)
        trace.to_csv(out / tname)
        outputs += [sname, rname, tname]
        log.info("finger %d: selected degree %d", finger, report.selected_degree)
    _write_manifest(out, "calibrate", cfg, outputs)
    return EXIT_OK


# Each runner returns (traces by file name, JSON file name, JSON payload); the
# payloads are the result dataclasses, serialized field by field by _json_dump.


def _run_step(cfg: Config, jobs: int) -> tuple:
    results = harness.run_step_response(cfg)
    traces = {f"step_trace_seed{k}.csv": r.trace for k, r in enumerate(results)}
    return traces, "step_metrics.json", {"runs": [{"segments": r.metrics} for r in results]}


def _run_switch(cfg: Config, jobs: int) -> tuple:
    results = harness.run_switching_experiment(cfg)
    traces = {f"switch_trace_seed{k}.csv": r.trace for k, r in enumerate(results)}
    runs = [
        {"switch_time": r.switch_time, "duty_range_post_settle": r.duty_range_post_settle, **vars(r.metrics)}
        for r in results
    ]
    return traces, "switch_metrics.json", {"runs": runs}


def _run_grasp(cfg: Config, jobs: int) -> tuple:
    return {}, "grasp_sweep.json", harness.run_grasp_sweep(cfg, jobs=jobs)


def _run_hardness(cfg: Config, jobs: int) -> tuple:
    results = harness.run_hardness_probe(cfg)
    traces = {f"hardness_trace_{name}.csv": r.trace for name, r in results.items()}
    payload = {
        name: {"classification": r.classification, "slope_deg_per_n": r.slope_deg_per_n}
        for name, r in results.items()
    }
    return traces, "hardness_result.json", payload


def _run_estimate(cfg: Config, jobs: int) -> tuple:
    return {}, "estimation_errors.json", {"rows": harness.run_estimation_accuracy(cfg)}


EXPERIMENTS = {
    "step": _run_step,
    "switch": _run_switch,
    "grasp": _run_grasp,
    "hardness": _run_hardness,
    "estimate": _run_estimate,
}


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    log.info("running experiment %r (seed %d, jobs %d)", args.experiment, cfg.seed, args.jobs)
    traces, name, payload = EXPERIMENTS[args.experiment](cfg, args.jobs)
    out = _out_dir(args)
    for tname, trace in traces.items():
        trace.to_csv(out / tname)
    _json_dump(out / name, payload)
    _write_manifest(out, args.experiment, cfg, [*traces, name])
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    json.dump(config_to_dict(cfg), sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softgrip",
        description="Contact-force estimation and PI force control for a simulated soft hand.",
    )
    parser.add_argument("--version", action="version", version=f"softgrip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    common.add_argument("--seed", type=int, help="override the config seed")
    jobs_help = (
        "worker processes for `run grasp`, which share its batches of trials "
        "(default 1; other commands run serially)"
    )
    common.add_argument("--jobs", type=int, default=1, help=jobs_help)

    p_cal = sub.add_parser("calibrate", parents=[common], help="run the calibration experiment")
    p_cal.add_argument("--out", required=True, help="output directory")
    p_cal.set_defaults(func=cmd_calibrate)

    p_run = sub.add_parser("run", parents=[common], help="run an experiment")
    p_run.add_argument("experiment", help="one of: " + ", ".join(EXPERIMENTS))
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a config and print the normalized form")
    p_val.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "experiment", None) is not None and args.experiment not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.experiment!r}; valid names: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if getattr(args, "jobs", 1) < 1:
        print(f"error: --jobs: must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SoftgripError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:  # a validated span of ticks that no list or array can hold
        print("error: out of memory: the config's spans need more ticks than fit in memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
