#!/usr/bin/env sh
# Checks that the working tree computes exactly what a base commit
# computes. Copies BASE (with `git archive`) and the working tree (its
# tracked and untracked, non-ignored files, as `git ls-files` lists
# them) into temporary directories, so neither build touches the
# tracked `metisbench/Cargo.lock` and nothing is written to the
# repository; builds `metisbench` in each, runs every
# workload once per seed with `--trace 0 --seconds 1` (one pass, which solves each
# instance once), and compares the per-instance
# `instance … profit … rounds … pivots` lines metisbench prints on
# stderr. Profit is printed with all its bits, so any change in a result,
# an alternation round count or a simplex pivot count shows up.
#
# Prints, per workload and seed, how many instances are identical, how
# many differ only in their pivot count, and how many differ in profit
# or rounds; every differing line pair goes to stderr.
#
# Both builds are cold release builds in fresh directories (no target
# directory is shared), so expect a few minutes of compiling before the
# first run.
#
# Exits 1 on any difference or failed run, 2 on bad usage.
#
# Usage: scripts/same_results.sh BASE [SEED...]    (seeds default to 1 1001)
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
    echo "usage: scripts/same_results.sh BASE [SEED...]" >&2
    exit 2
fi
base="$1"
shift
seeds="${*:-1 1001}"
workloads="anchor_sub_b4_k400 online_b4_warm zoo_audited"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/head"
git archive "$base" | tar -x -C "$tmp/base"
# Tracked files deleted from the working tree are still listed; skip them.
git ls-files --cached --others --exclude-standard | while read -r f; do
    if [ -e "$f" ]; then printf '%s\n' "$f"; fi
done | tar -c -f - -T - | tar -x -C "$tmp/head"

for tree in "$tmp/base" "$tmp/head"; do
    echo "building metisbench in $tree" >&2
    cargo build --release --offline -q --manifest-path "$tree/metisbench/Cargo.toml"
done

# fingerprints TREE WORKLOAD SEED: the instance lines of one pass.
fingerprints() {
    log="$tmp/run.log"
    if ! (cd "$1" && ./metisbench/target/release/metisbench \
        --workload "$2" --seed "$3" --seconds 1 --trace 0 >/dev/null 2>"$log"); then
        cat "$log" >&2
        echo "metisbench failed in $1: --workload $2 --seed $3" >&2
        return 1
    fi
    grep '^  instance ' "$log"
}

# classify BASE HEAD: "identical pivots_only other" over paired lines
# (`  instance NAME profit P rounds R pivots N`); a line one side lacks
# counts as other.
classify() {
    awk 'NR == FNR { base[FNR] = $0; n = FNR; next }
        {
            m = FNR
            split(base[FNR], b)
            if ($0 == base[FNR]) same++
            else if (b[2] == $2 && b[4] == $4 && b[6] == $6) pivots++
            else other++
        }
        END { other += (n > m ? n - m : 0); printf "%d %d %d\n", same, pivots, other }' "$1" "$2"
}

status=0
for w in $workloads; do
    for s in $seeds; do
        fingerprints "$tmp/base" "$w" "$s" >"$tmp/base.txt"
        fingerprints "$tmp/head" "$w" "$s" >"$tmp/head.txt"
        if [ ! -s "$tmp/base.txt" ]; then
            echo "$w seed $s: no instance lines" >&2
            status=1
            continue
        fi
        set -- $(classify "$tmp/base.txt" "$tmp/head.txt")
        echo "$w seed $s: $1 identical, $2 differ only in pivots, $3 differ in profit or rounds"
        if [ "$2" -ne 0 ] || [ "$3" -ne 0 ]; then
            diff "$tmp/base.txt" "$tmp/head.txt" >&2 || true
            status=1
        fi
    done
done
exit "$status"
