"""Check ``derive_seed`` against ``hashlib``'s SHA-256 on this interpreter.

Usage (any CPython 3.10+, numpy not needed):

    python3 scripts/check_seeding.py

``src/softgrip/seeding.py`` is loaded by path, so the package's
``__init__`` (which imports numpy) does not run.  The seeds of a few labels
the experiments use must equal both the digests ``hashlib.sha256`` gives and
the values recorded below.  It prints which module gave ``sha256``, and exits
1 on a mismatch.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

SEEDING = Path(__file__).resolve().parents[1] / "src" / "softgrip" / "seeding.py"

# (master, *labels) -> seed, as the experiments derive them
GOLDEN = {
    (12345, "calibration", 0, "plant"): 17561339889677640068,
    (12345, "grasp", "plastic_cup", 3, "plant", 2): 11594227822642898416,
    (777, "estimation-seed", 19): 9297552657210142809,
    (12345, "estimation", 15.0, "plant"): 444574252018930993,
    (777, "hardness", "free"): 17566939413268657428,
}


def hashlib_seed(master, *parts) -> int:
    text = repr((int(master),) + parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def main() -> int:
    spec = importlib.util.spec_from_file_location("seeding", SEEDING)
    seeding = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(seeding)
    print(f"python {sys.version.split()[0]}: sha256 from {seeding.sha256.__module__}")
    bad = 0
    for key, want in GOLDEN.items():
        got = seeding.derive_seed(*key)
        if got != want or got != hashlib_seed(*key):
            print(f"mismatch {key!r}: derive_seed {got}, recorded {want}, hashlib {hashlib_seed(*key)}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
