#!/usr/bin/env sh
# Net Rust line count of the working tree against a base commit: prints
# the lines added and removed in `*.rs` files and their difference,
# leaving out the vendored dependencies under vendor/.
#
# Usage: scripts/net_lines.sh [BASE]    (BASE defaults to HEAD~1)
set -eu
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
# Untracked files count too: mark them intent-to-add in a throwaway index.
index="$(mktemp)"
trap 'rm -f "$index"' EXIT
cp "$(git rev-parse --git-path index)" "$index"
GIT_INDEX_FILE="$index" git add -N -- '*.rs' ':!vendor/' 2>/dev/null || true
GIT_INDEX_FILE="$index" git diff --numstat "$base" -- '*.rs' ':!vendor/' | awk '
    $1 != "-" { added += $1; removed += $2 }
    END { printf "added %d  removed %d  net %+d\n", added, removed, added - removed }'
