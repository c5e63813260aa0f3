#!/usr/bin/env bash
# Non-test line count per crate: the lines of each `crates/*/src/**/*.rs`
# file above its first column-0 `#[cfg(test)]` (the whole file when it has
# none), summed per crate, then the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    [ -d "$crate/src" ] || continue
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')
    printf '%-10s %7d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"
