#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke gate for the serving layer.
#
# Builds calserved and calload, boots the server on an ephemeral port,
# drives the mixed workload (tenant create -> recurrence rule -> expand ->
# next-instant -> CRUD), the expand-heavy workload (multi-year
# grouping/set-op expansions through the engine's sweep kernels), and the
# stampede workload (every client hammering the same expressions against a
# cold cache, through the matcache singleflight layer) and one bulk expand
# read back whole (the streaming encoder's chunked multi-flush path over a
# real socket), converts the latency reports to benchjson artifacts, then
# SIGTERMs the server and asserts a graceful exit. Needs curl and jq.
#
# Artifacts (in $SMOKE_OUT, default ./smoke-out):
#   calload.txt                mixed-workload latency table + Benchmark lines
#   BENCH_serve.json           benchjson rendering of the mixed run
#   calload_expand.txt         expand-heavy latency table + Benchmark lines
#   BENCH_serve_expand.json    benchjson rendering of the expand-heavy run
#   calload_stampede.txt       stampede latency table + Benchmark lines
#   BENCH_serve_stampede.json  benchjson rendering of the stampede run
#   bulk_expand.json           the 5.8 k-interval expand response
#   calserved.log              server log
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${SMOKE_OUT:-smoke-out}"
mkdir -p "$OUT"
BIN="$OUT/bin"
mkdir -p "$BIN"

ADMIN_TOKEN="${CALSERVED_ADMIN_TOKEN:-smoke-admin-token}"

echo "serve-smoke: building"
go build -o "$BIN/calserved" ./cmd/calserved
go build -o "$BIN/calload" ./cmd/calload

echo "serve-smoke: booting calserved"
"$BIN/calserved" -addr 127.0.0.1:0 -admin-token "$ADMIN_TOKEN" -today 1993-01-01 \
    >"$OUT/calserved.log" 2>&1 &
SERVER_PID=$!
cleanup() {
    kill "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

# Scrape the ephemeral address from the startup line.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^calserved: listening on //p' "$OUT/calserved.log" | head -n1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve-smoke: server died during startup" >&2
        cat "$OUT/calserved.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve-smoke: server never printed its address" >&2
    cat "$OUT/calserved.log" >&2
    exit 1
fi
echo "serve-smoke: server at $ADDR"

echo "serve-smoke: running calload (mixed)"
"$BIN/calload" -addr "$ADDR" -admin-token "$ADMIN_TOKEN" \
    -tenants 4 -clients 8 -requests 40 | tee "$OUT/calload.txt"

echo "serve-smoke: running calload (expand-heavy)"
"$BIN/calload" -addr "$ADDR" -admin-token "$ADMIN_TOKEN" \
    -tenants 4 -clients 8 -requests 25 -mix expand -tenant-prefix exp \
    | tee "$OUT/calload_expand.txt"

echo "serve-smoke: running calload (stampede)"
# One tenant, many clients, a fresh tenant prefix (fresh catalog generation
# = cold cache keys): every client misses on the same expressions at once,
# exercising the singleflight stampede control end to end.
"$BIN/calload" -addr "$ADDR" -admin-token "$ADMIN_TOKEN" \
    -tenants 1 -clients 16 -requests 9 -mix stampede -tenant-prefix st \
    | tee "$OUT/calload_stampede.txt"

echo "serve-smoke: bulk expand (5.8 k intervals, ~400 KB, several flushes)"
# /expand streams its body in 64 KB flushes; what arrives must still be one
# JSON document whose count is the number of intervals in it.
curl -fsS -X POST "http://$ADDR/v1/tenants" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -d '{"name":"bulk0"}' >/dev/null
curl -fsS -X POST "http://$ADDR/v1/tenants/bulk0/expand" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -d '{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}' >"$OUT/bulk_expand.json"
if ! jq -e '.count >= 5000 and .count == (.intervals | length)' "$OUT/bulk_expand.json" >/dev/null; then
    echo "serve-smoke: bulk expand body is not JSON, or count != len(intervals)" >&2
    head -c 400 "$OUT/bulk_expand.json" >&2
    exit 1
fi
echo "serve-smoke: bulk expand OK ($(jq .count "$OUT/bulk_expand.json") intervals, $(wc -c <"$OUT/bulk_expand.json") bytes)"

echo "serve-smoke: rendering benchjson artifacts"
go run ./cmd/benchjson -o "$OUT/BENCH_serve.json" "$OUT/calload.txt"
go run ./cmd/benchjson -o "$OUT/BENCH_serve_expand.json" "$OUT/calload_expand.txt"
go run ./cmd/benchjson -o "$OUT/BENCH_serve_stampede.json" "$OUT/calload_stampede.txt"

echo "serve-smoke: draining server (SIGTERM)"
kill -TERM "$SERVER_PID"
WAIT_STATUS=0
wait "$SERVER_PID" || WAIT_STATUS=$?
trap - EXIT
if [ "$WAIT_STATUS" -ne 0 ]; then
    echo "serve-smoke: server exited $WAIT_STATUS on SIGTERM (want graceful 0)" >&2
    cat "$OUT/calserved.log" >&2
    exit 1
fi
grep -q "calserved: stopped" "$OUT/calserved.log" || {
    echo "serve-smoke: no graceful-stop line in server log" >&2
    cat "$OUT/calserved.log" >&2
    exit 1
}

echo "serve-smoke: OK (artifacts in $OUT)"
