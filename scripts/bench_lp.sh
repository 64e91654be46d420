#!/usr/bin/env sh
# LP engine A/B benchmark: builds the workspace in release mode, runs
# the `bench_lp` harness (the sparse LU engine against the dense
# reference backend), and leaves its canonical-JSON results (median
# solve and per-pivot times, refactorization/update counters,
# per-pivot ratios) in BENCH_lp.json — or the path given via --out —
# for CI trend tracking.
#
# BENCH_lp.json is version-controlled: the checked-in numbers are the
# trend baseline. To keep a rerun from silently clobbering results that
# were never committed, the script refuses to overwrite an *output
# file* (whatever --out points at, default BENCH_lp.json) that differs
# from HEAD — commit (or discard) it first, or rerun with FORCE=1.
# Output paths outside the repository are never guarded.
#
# Usage: [FORCE=1] scripts/bench_lp.sh [--quick] [--out PATH]
#        [--trend-check BASELINE] [--sizes M1,M2,...]
set -eu
cd "$(dirname "$0")/.."

# The guard protects the file the run will actually write: scan the
# arguments for --out rather than assuming the default.
out_path="BENCH_lp.json"
prev=""
for arg in "$@"; do
    if [ "$prev" = "--out" ]; then
        out_path="$arg"
    fi
    prev="$arg"
done

if [ "${FORCE:-0}" != "1" ] && [ -n "$(git status --porcelain -- "$out_path" 2>/dev/null)" ]; then
    echo "bench_lp.sh: $out_path has uncommitted changes." >&2
    echo "Commit or discard them first, or rerun with FORCE=1 to overwrite." >&2
    exit 1
fi

cargo run --release -p metis-bench --bin bench_lp -- "$@"
