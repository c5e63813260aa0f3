#!/usr/bin/env bash
# Doc-reference check: every binary, example and ledger file that
# README.md, DESIGN.md or EXPERIMENTS.md cites must exist, so no figure
# points at a command or a file that is gone. Checked citations:
# `--bin NAME`, `--example NAME`, `…src/bin/NAME.rs`, and the ledgers
# `BENCH_*.json`, `results_*` and `*_output.txt` at the repository root.
#
#   scripts/doc_refs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
for doc in "${docs[@]}"; do
    [ -f "$doc" ] || { echo "FAIL: $doc is missing"; exit 1; }
done
missing=0

# Prints `FILE:LINE:MATCH` for every match of the extended regex $1.
cites() { grep -onE -- "$1" "${docs[@]}" || true; }

# True when any of the given paths (globs already expanded) exists.
exists() {
    for path in "$@"; do
        [ -e "$path" ] && return 0
    done
    return 1
}

miss() {
    echo "FAIL: $1 cites \`$2\`, which does not exist"
    missing=$((missing + 1))
}

while IFS=: read -r file line ref; do
    name=${ref##* }
    exists crates/*/src/bin/"$name".rs src/bin/"$name".rs || miss "$file:$line" "$ref"
done < <(cites '--bin [A-Za-z0-9_-]+')

while IFS=: read -r file line ref; do
    name=${ref##* }
    exists examples/"$name".rs crates/*/examples/"$name".rs || miss "$file:$line" "$ref"
done < <(cites '--example [A-Za-z0-9_-]+')

while IFS=: read -r file line ref; do
    exists "$ref" crates/"$ref" || miss "$file:$line" "$ref"
done < <(cites '[A-Za-z0-9_/-]*src/bin/[A-Za-z0-9_-]+\.rs')

while IFS=: read -r file line ref; do
    exists "$ref" || miss "$file:$line" "$ref"
done < <(cites 'BENCH_[A-Za-z0-9_]+\.json|results_[A-Za-z0-9_]+\.[a-z]+|[A-Za-z0-9_]+_output\.txt')

if [ "$missing" -gt 0 ]; then
    echo "FAIL: $missing citation(s) of missing files"
    exit 1
fi
echo "    every cited binary, example and ledger exists"
