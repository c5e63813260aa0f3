#!/usr/bin/env bash
# HTTP smoke test: boot `gomil serve --listen` on an ephemeral port,
# solve one width over the socket, check /metrics parses, then drain
# gracefully and require a zero exit.
#
#   scripts/http_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/gomil-httpd.log"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

cargo build -q --release -p gomil --bin gomil
target/release/gomil serve --listen 127.0.0.1:0 \
    --no-cache-file --http-inflight 2 --http-queue 4 \
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

# One real solve end to end: the reply must carry a proved verdict.
solve=$(curl -sS -X POST "http://$addr/solve" \
    -H 'Content-Type: application/json' -d '{"m": 8, "ppg": "and"}')
echo "$solve" | grep -q '"verdict":"proved"' \
    || { echo "FAIL: solve reply lacks a proved verdict: $solve"; exit 1; }
echo "    POST /solve m=8: proved"

# Target search wins at m = 8, but the joint ILP ran first, and the reply
# counts its branch-and-bound work all the same.
for counter in solver_nodes solver_lp_iters; do
    echo "$solve" | grep -q "\"$counter\":[1-9]" \
        || { echo "FAIL: m=8 reply has no $counter: $solve"; exit 1; }
done
echo "    POST /solve m=8: joint-ILP nodes and LP iterations counted"

# No solver bounded the served target-search design, so its gap is infinite.
echo "$solve" | grep -q '"solver_gap":"inf"' \
    || { echo "FAIL: m=8 reply claims a finite gap: $solve"; exit 1; }
echo "    POST /solve m=8: gap inf"

# The joint ILP wins at m = 3 (in milliseconds) and proves its design.
solve=$(curl -sS -X POST "http://$addr/solve" \
    -H 'Content-Type: application/json' -d '{"m": 3, "ppg": "and"}')
echo "$solve" | grep -q '"strategy":"joint-ilp"' \
    || { echo "FAIL: m=3 reply is not a joint-ILP design: $solve"; exit 1; }
echo "$solve" | grep -q '"solver_gap":0,' \
    || { echo "FAIL: m=3 reply lacks the proved gap 0: $solve"; exit 1; }
echo "    POST /solve m=3: joint ILP, gap 0"

# POST /lp solves an uploaded model with the real branch and bound and
# certifies the answer.
knapsack=$'Maximize\n obj: +3 a +4 b +2 c\nSubject To\n weight: +2 a +3 b +1 c <= 4\nBinaries\n a b c\nEnd\n'
lp=$(curl -sS -X POST "http://$addr/lp" --data-binary "$knapsack")
echo "$lp" | grep -q '"status":"optimal"' \
    || { echo "FAIL: /lp knapsack is not optimal: $lp"; exit 1; }
echo "$lp" | grep -q '"certified":true' \
    || { echo "FAIL: /lp knapsack is not certified: $lp"; exit 1; }
echo "    POST /lp knapsack: optimal, certified"

# A section before the objective is refused on the line where it starts.
lp=$(curl -sS -w '\n%{http_code}' -X POST "http://$addr/lp" \
    --data-binary $'Subject To\n r: x <= 1\nEnd')
[ "${lp##*$'\n'}" = 400 ] || { echo "FAIL: misordered /lp model is not a 400: $lp"; exit 1; }
echo "$lp" | grep -q 'on line 1:' \
    || { echo "FAIL: misordered /lp model's error does not name line 1: $lp"; exit 1; }
echo "    POST /lp misordered sections: 400 on line 1"

# /metrics must be Prometheus-parseable: every non-comment line is
# "name[{labels}] value" with a numeric value, the solves were counted,
# and the solve counters reached their totals.
metrics=$(curl -sS "http://$addr/metrics")
echo "$metrics" | grep -q '^gomil_requests_total [1-9]' \
    || { echo "FAIL: gomil_requests_total missing or zero"; exit 1; }
echo "$metrics" | grep -q '^gomil_solver_nodes_total [1-9]' \
    || { echo "FAIL: gomil_solver_nodes_total missing or zero"; exit 1; }
echo "$metrics" | grep -q '^gomil_verify_vectors_total [1-9]' \
    || { echo "FAIL: gomil_verify_vectors_total missing or zero"; exit 1; }
bad=$(echo "$metrics" | grep -v '^#' | awk 'NF != 2 || $2 !~ /^[0-9.+eE-]+$|^inf$/ { print }')
[ -z "$bad" ] || { echo "FAIL: unparseable metric lines:"; echo "$bad"; exit 1; }
echo "    GET /metrics: parseable, requests and solve counters counted"

# Graceful drain: POST /shutdown, the process must exit 0 by itself.
curl -sS -X POST "http://$addr/shutdown" | grep -q draining \
    || { echo "FAIL: shutdown did not acknowledge drain"; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: server still running after drain"; exit 1
fi
wait "$server_pid" || { echo "FAIL: drain exited non-zero"; exit 1; }
echo "    drain: clean exit 0"
