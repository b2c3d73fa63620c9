"""Write the sha256 of every output file of every workload for this checkout.

Usage (from the repository root)::

    python3 bench/digests.py [--seed 12345] [--out digests.json]

Runs each workload's commands once, untraced, and writes one JSON object
``{workload: {output file: sha256}}`` (to standard output without
``--out``).  The file names nothing but the outputs, so the files written
in two checkouts compare byte for byte (``cmp a.json b.json``): a change
that should not alter results, such as a speed-up, must leave them equal.
The sources and commit the digests came from are printed to standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from workloads import BENCH_DIR, WORKLOADS, check_source_tree, digest_tree, run_round, source_digest


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the output digests of every workload.")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--out", help="file to write (default: standard output)")
    args = parser.parse_args(argv)
    problem = check_source_tree()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    work = BENCH_DIR / ".work" / "digests"
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            records = run_round(workload, args.seed, work / name, False, f"digests-{name}")
            failed = [r for r in records if r["exit_code"] != 0]
            if failed:
                for r in failed:
                    print(f"error: {' '.join(r['args'])} exited {r['exit_code']}\n{r.get('stderr', '')}", file=sys.stderr)
                return 1
            digests[name] = digest_tree(work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps({"seed": args.seed, "workloads": digests}, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"sources sha256 {source_digest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
