#!/usr/bin/env bash
# Mart smoke test: build a tiny precomputed design mart (m in {4, 8}),
# boot `gomil serve --listen --mart`, and require that a mart-covered
# solve is served with ZERO solver invocations — the hit must show up in
# /metrics as gomil_mart_hits_total with nonzero coverage. A copy with
# one damaged entry line must fail `mart verify` with 1 corrupt line, and
# `serve --mart` must refuse an empty file before it binds.
#
#   scripts/mart_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/gomil-httpd.log"
martfile="$workdir/smoke.mart"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

cargo build -q --release -p gomil --bin gomil

# Offline build of the hot lattice, then the store must self-verify.
target/release/gomil mart build --out "$martfile" --ms 4,8 >/dev/null
target/release/gomil mart verify "$martfile" >/dev/null
echo "    mart build + verify: ok"

# One damaged byte inside the first entry line's canonical key: that
# line fails its checksum and is skipped and counted, never served.
damaged="$workdir/damaged.mart"
cp "$martfile" "$damaged"
offset=$(( $(head -n 1 "$martfile" | wc -c) + 10 ))
printf 'X' | dd of="$damaged" bs=1 seek="$offset" conv=notrunc status=none
if report=$(target/release/gomil mart verify "$damaged" 2>/dev/null); then
    echo "FAIL: mart verify passed a damaged mart: $report"; exit 1
fi
echo "$report" | grep -q ' 1 corrupt$' \
    || { echo "FAIL: mart verify did not report 1 corrupt line: $report"; exit 1; }
target/release/gomil mart stats "$damaged" | grep -q 'skipped 1$' \
    || { echo "FAIL: mart stats did not report skipped 1"; exit 1; }
echo "    damaged entry line: verify fails with 1 corrupt, stats skipped 1"

# An empty file is not a mart: serve must exit 1 before binding, and say
# how to rebuild it.
empty="$workdir/empty.mart"
: >"$empty"
status=0
timeout 60 target/release/gomil serve --listen 127.0.0.1:0 \
    --no-cache-file --mart "$empty" >"$workdir/empty.log" 2>&1 || status=$?
[ "$status" -eq 1 ] \
    || { cat "$workdir/empty.log"; echo "FAIL: serve on an empty mart exited $status, not 1"; exit 1; }
if grep -q 'listening on' "$workdir/empty.log"; then
    echo "FAIL: serve bound before refusing the empty mart"; exit 1
fi
grep -q 'gomil mart build' "$workdir/empty.log" \
    || { cat "$workdir/empty.log"; echo "FAIL: the refusal does not name gomil mart build"; exit 1; }
echo "    empty mart: serve refuses it before binding"

target/release/gomil serve --listen 127.0.0.1:0 \
    --no-cache-file --mart "$martfile" \
    2>"$logfile" &
server_pid=$!

# The server prints "listening on http://ADDR" once bound.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^listening on http://\([0-9.:]*\).*#\1#p' "$logfile" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$logfile"; echo "FAIL: server died"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$logfile"; echo "FAIL: server never bound"; exit 1; }
echo "    server at $addr"

# A covered request must answer instantly from the mart. The reply now
# echoes the canonical key so callers can confirm identity.
solve=$(curl -sS -X POST "http://$addr/solve" \
    -H 'Content-Type: application/json' -d '{"m": 8, "ppg": "and"}')
echo "$solve" | grep -q '"verdict":"proved"' \
    || { echo "FAIL: mart reply lacks a proved verdict: $solve"; exit 1; }
echo "$solve" | grep -q '"key":"v1;m=8;ppg=AND;' \
    || { echo "FAIL: reply does not echo the canonical key: $solve"; exit 1; }
echo "    POST /solve m=8: proved, canonical key echoed"

# Zero solver invocations, at least one mart hit, nonzero coverage.
metrics=$(curl -sS "http://$addr/metrics")
echo "$metrics" | grep -q '^gomil_solves_total 0$' \
    || { echo "FAIL: solver was invoked for a mart-covered request"; exit 1; }
echo "$metrics" | grep -qE '^gomil_mart_hits_total [1-9]' \
    || { echo "FAIL: gomil_mart_hits_total missing or zero"; exit 1; }
echo "$metrics" | grep -q '^gomil_mart_entries [1-9]' \
    || { echo "FAIL: gomil_mart_entries missing or zero"; exit 1; }
echo "$metrics" | grep -qE '^gomil_mart_coverage (1|0\.[0-9]*[1-9])' \
    || { echo "FAIL: gomil_mart_coverage is zero"; exit 1; }
echo "    GET /metrics: zero solves, mart hit counted, coverage nonzero"

# Graceful drain: POST /shutdown, the process must exit 0 by itself,
# within 2 s: with nothing in flight the drain wakes the blocked accept
# and ends at once.
curl -sS -X POST "http://$addr/shutdown" | grep -q draining \
    || { echo "FAIL: shutdown did not acknowledge drain"; exit 1; }
for _ in $(seq 1 20); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: server still running 2 s after drain"; exit 1
fi
wait "$server_pid" || { echo "FAIL: drain exited non-zero"; exit 1; }
echo "    drain: clean exit 0"
