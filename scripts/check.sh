#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest.
#
#   scripts/check.sh            # fmt + build + tests + clippy
#
# Works fully offline (the workspace has no network dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

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

echo "==> solver smoke gates (release: basis-reuse pivots > 3x, devex root-LP iters > 1.2x Dantzig, or a cut-changed certified objective fails)"
cargo run -q --release -p gomil-bench --bin solver_scaling -- --quick

echo "==> equivalence smoke gate (release: strict-verify roster, proved/tested tiers)"
cargo run -q --release -p gomil-bench --bin equiv_smoke -- --quick

echo "==> HTTP smoke (gomil serve --listen: solve over a socket, metrics, graceful drain)"
scripts/http_smoke.sh

echo "==> mart smoke (gomil mart build + serve --mart: covered solve with zero solver invocations)"
scripts/mart_smoke.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
