#!/usr/bin/env bash
# Compare every output file of every benchmark workload between two commits.
#
# Usage (from anywhere inside the repository):
#
#     scripts/compare_outputs.sh [BASE [HEAD]]     # default: HEAD^ HEAD
#
# Each commit is extracted into a directory of its own (git archive), and its
# own, unchanged bench/digests.py runs there, at seeds 12345 and 777, since
# the script runs the package from its own checkout's src/.  The digest files
# are compared with cmp.  A difference fails the comparison and names the
# differing output files (workload/file), unless HEAD's commit message has an
# "Outputs-changed:" trailer that lists exactly those files, comma- or
# space-separated, e.g.
#
#     Outputs-changed: trace-export/switch/switch_metrics.json
#
# Digests come from one machine, so a libm or BLAS that differs in the last
# bit on another CPU cannot fail the comparison.  They also come from one
# interpreter version, the python3 on PATH, which runs both sides: from
# Python 3.12, builtin sum() of floats is compensated, so the bytes of other
# minor versions may differ (README, "Determinism").  The Python and numpy
# versions that produced the digests are printed to stderr.  Exit status: 0
# equal (or declared), 1 undeclared or mis-declared differences, 2 usage or
# run error.
set -euo pipefail

SEEDS="12345 777"
base=${1:-HEAD^}
head=${2:-HEAD}
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base^{commit}") || exit 2
head_sha=$(git -C "$root" rev-parse --verify "$head^{commit}") || exit 2

work=$(mktemp -d "${TMPDIR:-/tmp}/compare-outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in base head; do
    sha_var=${side}_sha
    mkdir "$work/$side"
    git -C "$root" archive "${!sha_var}" | tar -x -C "$work/$side"
done

python3 -c 'import sys, numpy; print(f"digests by Python {sys.version.split()[0]}, numpy {numpy.__version__}")' >&2 \
    || exit 2

for seed in $SEEDS; do
    for side in base head; do
        echo "== $side ${!side} (seed $seed)" >&2
        (cd "$work/$side" && python3 bench/digests.py --seed "$seed" --out "$work/$side-$seed.json") || exit 2
    done
done

# the output files whose digests differ at any seed, one per line, sorted
differing=$(
    python3 - "$work" $SEEDS <<'EOF'
import json
import sys

work, seeds = sys.argv[1], sys.argv[2:]
names = set()
for seed in seeds:
    sides = []
    for side in ("base", "head"):
        with open(f"{work}/{side}-{seed}.json") as fh:
            sides.append(json.load(fh)["workloads"])
    base, head = sides
    for workload in base.keys() | head.keys():
        files_base, files_head = base.get(workload, {}), head.get(workload, {})
        for name in files_base.keys() | files_head.keys():
            if files_base.get(name) != files_head.get(name):
                names.add(f"{workload}/{name}")
print("\n".join(sorted(names)))
EOF
) || exit 2

for seed in $SEEDS; do
    if cmp -s "$work/base-$seed.json" "$work/head-$seed.json"; then
        echo "seed $seed: every output file is byte-identical" >&2
    elif [ -z "$differing" ]; then
        echo "seed $seed: the digest files differ in more than their digests" >&2
        cmp "$work/base-$seed.json" "$work/head-$seed.json" >&2 || true
        exit 1
    fi
done
[ -z "$differing" ] && exit 0

declared=$(
    git -C "$root" log -1 --format='%(trailers:key=Outputs-changed,valueonly,separator=%x0A)' "$head_sha" \
        | tr ', ' '\n\n' | sed '/^$/d' | sort -u
)
if [ "$declared" = "$differing" ]; then
    echo "outputs differ as the Outputs-changed trailer declares:" >&2
    printf '  %s\n' $differing >&2
    exit 0
fi
echo "outputs differ between $base and $head:" >&2
printf '  %s\n' $differing >&2
if [ -n "$declared" ]; then
    echo "but the Outputs-changed trailer of $head lists:" >&2
    printf '  %s\n' $declared >&2
else
    echo "and $head has no Outputs-changed trailer naming them" >&2
fi
exit 1
