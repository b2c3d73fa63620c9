"""The benchmark's hooks install on the package as it stands.

``bench/child.py`` wraps named functions of ``softgrip`` to split a run into
phases (``install_phase_timers``) and to count and time the per-tick layers
(``install_tracer``).  A refactor that drops or renames one of those names
would fail every benchmark run, so this installs both hooks in a fresh
process, where their patches cannot leak into other tests, and checks that
each wrapper took its place.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json
import sys

sys.path.insert(0, sys.argv[1])
from child import RUN_FUNCTIONS, Tracer, install_phase_timers, install_tracer
from softgrip import cli, harness

tracer = Tracer("hooks")
install_tracer(tracer)
install_phase_timers({"calibrate_s": 0.0, "simulate_s": 0.0})
print(json.dumps({
    "traced": sorted(tracer.calls),
    "runs": list(RUN_FUNCTIONS),
    "timed": [getattr(harness, name).__qualname__ for name in RUN_FUNCTIONS],
    "calibrate": harness.run_calibration_experiment.__qualname__,
    "validate": cli.validate.__qualname__,
}))
"""


def test_benchmark_hooks_install_on_the_package():
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    # -B: no bytecode cache is written next to the benchmark's sources
    done = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    installed = json.loads(done.stdout)
    # the tracer wrapped every per-layer name and every experiment's entry point
    for name in ("plant.FingerPlant.sense", "estimation.contact_force", "harness.grasp_trial"):
        assert name in installed["traced"]
    assert {f"harness.{name}" for name in installed["runs"]} <= set(installed["traced"])
    # the phase timers wrap outermost, over the tracer's wrappers
    assert all(q.startswith("install_phase_timers.") for q in installed["timed"])
    assert installed["calibrate"].startswith("install_phase_timers.")
    assert installed["validate"].startswith("install_phase_timers.")
