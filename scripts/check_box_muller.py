"""Check that ``cmath.rect`` gives ``random.gauss``'s Box-Muller products,
bit for bit, on this interpreter.

Usage (any CPython 3.10+, numpy not needed):

    python3 scripts/check_box_muller.py

``plant.GaussStream._draw`` takes each pair of noise values as
``cmath.rect(r, phi)``, where ``random.gauss`` computes ``r * cos(phi)``
and ``r * sin(phi)`` with ``math``.  CPython's ``rect`` multiplies by
libm's ``cos`` and ``sin``, and returns ``(r, r * phi)`` at ``phi == 0``;
both must equal the ``math`` products in value and sign.  The check runs
over the draw's domain, r in [0, 8.6] and phi in [0, 2 pi), at a fixed
seed: pairs built from ``random()`` as ``random.gauss`` builds them,
uniform pairs, and the edges (signed zeros, the smallest and largest u).
It prints the count of pairs checked, and exits 1 on a mismatch.
"""

import cmath
import math
import random
import sys

PAIRS = 500_000  # of each kind: gauss's own and uniform
TWOPI = 2.0 * math.pi
U_MAX = (2**53 - 1) / 2**53  # the largest random()
R_MAX = math.sqrt(-2.0 * math.log(1.0 - U_MAX))  # 8.57, the largest r


def pairs(rng: random.Random):
    """(r, phi) over the draw's domain: the edges, then gauss's own pairs,
    then uniform ones."""
    for r in (0.0, -0.0, 5e-324, 2**-26, 1.0, R_MAX):
        for phi in (0.0, 2**-53 * TWOPI, math.pi / 2, math.pi, U_MAX * TWOPI):
            yield r, phi
    for _ in range(PAIRS):
        phi = rng.random() * TWOPI
        yield math.sqrt(-2.0 * math.log(1.0 - rng.random())), phi
    for _ in range(PAIRS):
        yield rng.uniform(0.0, 8.6), rng.random() * TWOPI


def main() -> int:
    bad = checked = 0
    for r, phi in pairs(random.Random(20240611)):
        z = cmath.rect(r, phi)
        want = (r * math.cos(phi)).hex(), (r * math.sin(phi)).hex()
        if (z.real.hex(), z.imag.hex()) != want:
            if bad < 10:
                print(f"mismatch at r={r.hex()} phi={phi.hex()}: rect {z!r}, math {want}")
            bad += 1
        checked += 1
    print(f"python {sys.version.split()[0]}: {checked} pairs, {bad} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
