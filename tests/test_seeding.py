"""Seed derivation tests.

Covers:
- ``derive_seed`` is the first 8 bytes, big-endian, of ``hashlib``'s SHA-256
  of ``repr((int(master),) + parts)``, over generated masters (negative, zero,
  past 2**64) and labels of str, int and float
- the seeds of labels the experiments use equal recorded values, and
  ``scripts/check_seeding.py`` (the per-interpreter CI check) passes here
- a ``--jobs 1`` run never loads ``_hashlib``, so no process maps OpenSSL
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softgrip.seeding import derive_seed

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "scripts" / "check_seeding.py"

spec = importlib.util.spec_from_file_location("check_seeding", CHECK)
check_seeding = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_seeding)

MASTERS = st.one_of(st.integers(max_value=0), st.integers(min_value=2**64, max_value=2**80), st.integers())
LABELS = st.lists(st.one_of(st.text(), st.integers(), st.floats()), max_size=6).map(tuple)


@given(MASTERS, LABELS)
def test_derive_seed_is_hashlib_sha256(master, parts):
    text = repr((int(master),) + parts)
    want = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
    assert derive_seed(master, *parts) == want


@pytest.mark.parametrize("key, seed", sorted(check_seeding.GOLDEN.items(), key=repr))
def test_derive_seed_recorded_values(key, seed):
    assert derive_seed(*key) == seed


def test_check_seeding_script_passes():
    done = subprocess.run([sys.executable, "-B", str(CHECK)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "sha256 from _sha2" in done.stdout or "sha256 from _sha256" in done.stdout


RUN = """
import sys
from softgrip.cli import main

rc = main(["run", "estimate", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "1"])
print(rc, "_hashlib" in sys.modules)
"""


def test_run_never_loads_openssl(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "calibration": {"cycles": 3, "levels": 8},
                "estimation": {"n_seeds": 1, "positions": [20.0]},
            }
        )
    )
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", RUN, str(config), str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
