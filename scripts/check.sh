#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest.
#
#   scripts/check.sh            # fmt + doc refs + build + tests + traced gen-ilp pass + rustdoc + clippy
#
# Works fully offline (the workspace has no network dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> doc references (README, DESIGN and EXPERIMENTS cite only bins, examples and ledgers that exist)"
scripts/doc_refs.sh

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root integration tests)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> jobs-matrix solver tests (release: one B&B engine at 1, 2 and 8 workers, pinned 1-worker tree)"
cargo test -q --release --test solver_parallel

echo "==> benchmark harness tests (e2ebench builds against the crates' public API)"
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml

echo "==> traced gen-ilp pass (e2ebench: proved 60/33/70, equivalence, one design per key, replay fidelity)"
CARGO_TARGET_DIR=target python3 e2ebench/run.py --workload gen-ilp --seed 1 --seconds 1 --trace 1 |
    tail -n 1 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'

echo "==> solver smoke gates (release: basis-reuse pivots > 3x, devex root-LP iters > 1.2x Dantzig, or a cut-changed certified objective fails)"
cargo run -q --release -p gomil-bench --bin solver_scaling -- --quick

echo "==> equivalence smoke gate (release: strict-verify roster, proved/tested tiers)"
cargo run -q --release -p gomil-bench --bin equiv_smoke -- --quick

echo "==> HTTP smoke (gomil serve --listen: solve over a socket, metrics, graceful drain)"
scripts/http_smoke.sh

echo "==> mart smoke (gomil mart build + serve --mart: covered solve with zero solver invocations)"
scripts/mart_smoke.sh

echo "==> rustdoc with warnings denied (broken or ambiguous intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
