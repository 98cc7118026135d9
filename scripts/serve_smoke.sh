#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke gate for the serving layer.
#
# Builds calserved, boots it on an ephemeral port and walks one tenant through
# the API with curl, asserting each response with jq: tenant -> stored days ->
# derived calendar -> rule -> /next -> /expand -> one 4xx error envelope ->
# drops. Then one bulk expand is read back whole (the streaming encoder's
# multi-flush path over a real socket, its length declared up front), read
# again by a client that hangs up mid-body, and read whole a third time,
# which must equal the first; then the server is SIGTERMed
# and must exit gracefully. Load is calbench's job: the script ends with a 2 s
# serve_churn run (writes, invalidation, concurrent cold flights, every
# response checked against the oracle; it boots its own calserved and exits
# non-zero on any failed response). Needs curl and jq.
#
# Artifacts (in $SMOKE_OUT, default ./smoke-out):
#   calserved.log              server log
#   bulk_expand.json           the 5.8 k-interval expand response
#   bulk_expand.headers        its response headers
#   bulk_expand.cut            the same expand cut off by its client mid-body
#   bulk_expand_again.json     the same expand read whole after the hang-up
#   bulk_expand_again.headers  its response headers
#   calbench_serve_churn.json  calbench's result line for the load run
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${SMOKE_OUT:-smoke-out}"
mkdir -p "$OUT"
BIN="$OUT/bin"
mkdir -p "$BIN"

ADMIN_TOKEN="${CALSERVED_ADMIN_TOKEN:-smoke-admin-token}"

echo "serve-smoke: building"
go build -o "$BIN/calserved" ./cmd/calserved

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

# api METHOD PATH TOKEN [BODY]: one request; the body lands in $OUT/resp.json
# and the status code on stdout.
api() {
    curl -sS -o "$OUT/resp.json" -w '%{http_code}' -X "$1" "http://$ADDR$2" \
        -H "Authorization: Bearer $3" ${4:+-d "$4"}
}
# expect WHAT WANT_STATUS GOT_STATUS [JQ_FILTER]: status must match and, when
# a filter is given, it must hold on the response body.
expect() {
    if [ "$3" != "$2" ] || { [ -n "${4:-}" ] && ! jq -e "$4" "$OUT/resp.json" >/dev/null; }; then
        echo "serve-smoke: $1: status $3 (want $2)${4:+, or body fails: $4}" >&2
        cat "$OUT/resp.json" >&2
        exit 1
    fi
}

echo "serve-smoke: CRUD walk (tenant -> calendars -> rule -> next -> expand -> errors)"
T=/v1/tenants/smoke0
expect "healthz" 200 "$(api GET /healthz "")" '.status == "ok"'
expect "create tenant" 201 "$(api POST /v1/tenants "$ADMIN_TOKEN" '{"name":"smoke0"}')" '.token | length > 0'
TOKEN=$(jq -r .token "$OUT/resp.json")
expect "tenant route without a token" 401 "$(api GET $T/calendars "")" '.error.code == "unauthorized"'
expect "put stored days" 201 "$(api PUT $T/calendars/holidays "$TOKEN" \
    '{"days":["1993-01-01","1993-07-05","1993-12-24"]}')" '.stored == true'
expect "replace stored days" 200 "$(api PUT $T/calendars/holidays "$TOKEN" \
    '{"days":["1993-01-01","1993-07-05","1993-12-24","1993-12-31"]}')" '.replaced == true'
expect "put derived calendar" 201 "$(api PUT $T/calendars/bizdays "$TOKEN" \
    '{"derivation":"([1,2,3,4,5]/DAYS:during:WEEKS) - holidays"}')" '.stored == false and .granularity == "DAYS"'
expect "list calendars" 200 "$(api GET $T/calendars "$TOKEN")" '[.calendars[].name] == ["bizdays","holidays"]'
expect "put rule" 201 "$(api PUT $T/rules/eom "$TOKEN" '{"expr":"[n]/bizdays:during:MONTHS"}')" \
    '.name == "eom" and .next == "1993-01-29"'
expect "put rule twice" 409 "$(api PUT $T/rules/eom "$TOKEN" '{"expr":"DAYS"}')" '.error.code == "conflict"'
expect "next by rule" 200 "$(api POST $T/next "$TOKEN" '{"rule":"eom","after":"1993-12-01"}')" \
    '.next == "1993-12-30"'
expect "expand" 200 "$(api POST $T/expand "$TOKEN" \
    '{"expr":"[n]/bizdays:during:MONTHS","from":"1993-01-01","to":"1993-12-31"}')" \
    '.count == 12 and (.intervals | length) == 12 and .intervals[11].start == "1993-12-30"'
expect "expand by recurrence" 200 "$(api POST $T/expand "$TOKEN" \
    '{"recurrence":{"cycle":"monthly","days":[15,-1]},"from":"1993-01-01","to":"1993-03-31"}')" '.count == 6'
expect "vet-on-write refusal" 400 "$(api PUT $T/calendars/bad "$TOKEN" '{"derivation":"[1]/NOSUCH:during:WEEKS"}')" \
    '.error.code == "vet_failed" and (.error.diagnostics | length) > 0'
expect "drop rule" 204 "$(api DELETE $T/rules/eom "$TOKEN")"
expect "drop calendar" 204 "$(api DELETE $T/calendars/bizdays "$TOKEN")"
expect "drop calendar twice" 404 "$(api DELETE $T/calendars/bizdays "$TOKEN")" '.error.code == "not_found"'
rm -f "$OUT/resp.json"

echo "serve-smoke: bulk expand (5.8 k intervals, ~400 KB, several flushes)"
# /expand streams its body in 64 KB flushes; what arrives must still be one
# JSON document whose count is the number of intervals in it, and a window
# inside the years 0..9999 declares its length: Content-Length must be the
# bytes received.
curl -fsS -X POST "http://$ADDR/v1/tenants" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -d '{"name":"bulk0"}' >/dev/null
curl -fsS -X POST "http://$ADDR/v1/tenants/bulk0/expand" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -D "$OUT/bulk_expand.headers" \
    -d '{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}' >"$OUT/bulk_expand.json"
if ! jq -e '.count >= 5000 and .count == (.intervals | length)' "$OUT/bulk_expand.json" >/dev/null; then
    echo "serve-smoke: bulk expand body is not JSON, or count != len(intervals)" >&2
    head -c 400 "$OUT/bulk_expand.json" >&2
    exit 1
fi
DECLARED=$(tr -d '\r' <"$OUT/bulk_expand.headers" | awk 'tolower($1) == "content-length:" { print $2 }')
RECEIVED=$(wc -c <"$OUT/bulk_expand.json" | tr -d ' ')
if [ -z "$DECLARED" ] || [ "$DECLARED" != "$RECEIVED" ]; then
    echo "serve-smoke: bulk expand declared Content-Length '${DECLARED}', received $RECEIVED bytes" >&2
    cat "$OUT/bulk_expand.headers" >&2
    exit 1
fi
echo "serve-smoke: bulk expand OK ($(jq .count "$OUT/bulk_expand.json") intervals, $(wc -c <"$OUT/bulk_expand.json") bytes)"

# The same request behind a client that hangs up mid-body (curl reads slowly,
# so the server is still writing when head has its 100 000 bytes and closes
# the pipe), then read whole a third time: the encoder's pooled buffer went
# back to the pool after the cut-off body, and the third body must equal the
# first byte for byte, with the same Content-Length.
echo "serve-smoke: bulk expand cut off by its client at 100 000 bytes, then read whole again"
{ curl -fs --limit-rate 200k -X POST "http://$ADDR/v1/tenants/bulk0/expand" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -d '{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}' 2>/dev/null || true; } |
    head -c 100000 >"$OUT/bulk_expand.cut"
if ! cmp -s -n 100000 "$OUT/bulk_expand.cut" "$OUT/bulk_expand.json" || [ "$(wc -c <"$OUT/bulk_expand.cut" | tr -d ' ')" != 100000 ]; then
    echo "serve-smoke: the cut-off bulk expand is not the first 100 000 bytes of the full one" >&2
    exit 1
fi
curl -fsS -X POST "http://$ADDR/v1/tenants/bulk0/expand" -H "Authorization: Bearer $ADMIN_TOKEN" \
    -D "$OUT/bulk_expand_again.headers" \
    -d '{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}' >"$OUT/bulk_expand_again.json"
if ! cmp "$OUT/bulk_expand_again.json" "$OUT/bulk_expand.json" >&2; then
    echo "serve-smoke: the bulk expand read after a hang-up differs from the first" >&2
    exit 1
fi
AGAIN=$(tr -d '\r' <"$OUT/bulk_expand_again.headers" | awk 'tolower($1) == "content-length:" { print $2 }')
if [ "$AGAIN" != "$DECLARED" ]; then
    echo "serve-smoke: after a hang-up the bulk expand declared Content-Length '${AGAIN}', want $DECLARED" >&2
    exit 1
fi
echo "serve-smoke: bulk expand after a hang-up OK (same $AGAIN bytes)"

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

echo "serve-smoke: load (calbench serve_churn, 2 s, every response checked against the oracle)"
./bench/run.sh -workload serve_churn -seed 1 -seconds 2 -trace 0 | tee /dev/stderr |
    tail -n 1 >"$OUT/calbench_serve_churn.json"
jq -e '.correct and .failed == 0' "$OUT/calbench_serve_churn.json" >/dev/null || {
    echo "serve-smoke: calbench result line is not a clean report" >&2
    exit 1
}

echo "serve-smoke: OK (artifacts in $OUT)"
