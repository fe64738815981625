#!/usr/bin/env bash
# Non-test line count: every `.rs` file under `crates/*/src` and `src/`,
# counted up to (not including) its first top-level `#[cfg(test)]` line.
# Prints one line per crate, then the total.
#
#   ./scripts/loc.sh
#
# This is the one rule for the "net non-test line delta" each change
# reports; run it on both trees and subtract the totals.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    # Lines of each file before its first column-0 `#[cfg(test)]`.
    find "$@" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    if [[ "$dir" == src ]]; then
        name=kpa
    else
        name=$(basename "$(dirname "$dir")")
    fi
    n=$(count "$dir")
    total=$((total + n))
    printf '%-14s %6d\n' "$name" "$n"
done
printf '%-14s %6d\n' total "$total"
