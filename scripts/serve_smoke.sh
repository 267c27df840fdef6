#!/usr/bin/env bash
# Serve-mode smoke test: boot `gqfarm -serve` with raw-iron inmates on the
# recycling pipeline, poll /healthz until the ops plane answers, scrape
# /metrics in both machine formats, list /machines, read one SSE event
# with a hard timeout, force one recycle, then SIGTERM and require a clean
# exit 0. A second leg repeats the core checks against a sharded farm
# (-sharded -workers 2): the ops plane must serve a multi-domain soak and
# control posts must land in the owning domain's event loop. Run from the
# repository root (CI job: serve-smoke).
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-9321}"
LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

go build -o /tmp/gqfarm-smoke ./cmd/gqfarm
/tmp/gqfarm-smoke -serve "$ADDR" -speed 600 -inmates 2 -rawiron 2 >"$LOG" 2>&1 &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; rm -f "$LOG"' EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    echo "--- gqfarm log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# The ops plane must come up within 10s.
up=0
for _ in $(seq 1 100); do
    if curl -sf -m 2 "http://$ADDR/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 $PID 2>/dev/null || fail "gqfarm died during startup"
    sleep 0.1
done
[ "$up" = 1 ] || fail "/healthz never answered"

# Capture then grep: under pipefail, grep -q closing the pipe early would
# fail an otherwise-healthy curl with EPIPE.
expect() { # expect <url> <pattern> <label>
    local body
    body=$(curl -sf -m 5 "$1") || fail "$3 unreachable"
    echo "$body" | grep -q "$2" || fail "$3 missing $2"
}
expect "http://$ADDR/healthz" '"status": "ok"' "/healthz"
expect "http://$ADDR/metrics" '# TYPE gq_sim_time_seconds gauge' "/metrics (prom)"
expect "http://$ADDR/metrics?format=json" '"counters"' "/metrics (json)"
expect "http://$ADDR/flights" '"dumps"' "/flights"
expect "http://$ADDR/machines" '"name": "Botfarm-iron-0"' "/machines"

# One SSE read: the stream must yield at least one data line before the
# timeout (curl exits non-zero on -m, so guard with the grep result).
(curl -s -N -m 8 "http://$ADDR/events" || true) | grep -q '^data: {"t_ns":' \
    || fail "SSE stream produced no events"

# Runtime control answers synchronously.
ctrl=$(curl -sf -m 5 -X POST -d '{"lo":16,"hi":17,"policy":"HardDeny"}' \
    "http://$ADDR/policy") || fail "POST /policy unreachable"
echo "$ctrl" | grep -q '"applied": "policy_swap"' || fail "POST /policy rejected: $ctrl"

# Force one recycle. The kick only lands while the box is inside its
# detonation window, and at -speed 600 the pipeline phases rotate in wall
# seconds — retry until we catch it detonating (VLAN 18 is iron-0: two VM
# inmates take 16-17, the raw-iron pair 18-19).
recycled=0
for _ in $(seq 1 50); do
    rc_body=$(curl -s -m 5 -X POST -d '{}' "http://$ADDR/recycle/18" || true)
    if echo "$rc_body" | grep -q '"applied": "recycle"'; then recycled=1; break; fi
    sleep 0.2
done
[ "$recycled" = 1 ] || fail "POST /recycle/18 never landed: $rc_body"

kill -TERM $PID
rc=0
wait $PID || rc=$?
[ "$rc" = 0 ] || fail "gqfarm exited $rc after SIGTERM, want 0"
grep -q 'soak ended' "$LOG" || fail "clean-shutdown line missing from log"

# Second leg: a sharded served soak. The ops plane must compose with
# -sharded — control posts land in the owning domain's event loop — and
# the coordinator's scheduling metrics must surface on /metrics.
ADDR2="127.0.0.1:${SMOKE_PORT2:-9322}"
LOG2="$(mktemp)"
/tmp/gqfarm-smoke -serve "$ADDR2" -speed 600 -inmates 2 -sharded -workers 2 >"$LOG2" 2>&1 &
PID2=$!
trap 'kill -9 $PID $PID2 2>/dev/null || true; rm -f "$LOG" "$LOG2"' EXIT

up=0
for _ in $(seq 1 100); do
    if curl -sf -m 2 "http://$ADDR2/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 $PID2 2>/dev/null || { LOG="$LOG2" fail "sharded gqfarm died during startup"; }
    sleep 0.1
done
[ "$up" = 1 ] || { LOG="$LOG2" fail "sharded /healthz never answered"; }

sexpect() { # sexpect <url> <pattern> <label>
    local body
    body=$(curl -sf -m 5 "$1") || { LOG="$LOG2" fail "$3 unreachable (sharded)"; }
    echo "$body" | grep -q "$2" || { LOG="$LOG2" fail "$3 missing $2 (sharded)"; }
}
sexpect "http://$ADDR2/healthz" '"status": "ok"' "/healthz"
sexpect "http://$ADDR2/metrics" '# TYPE gq_sim_domains_busy gauge' "/metrics (prom)"
sexpect "http://$ADDR2/metrics?format=json" '"sim.rounds"' "/metrics (json)"

# A control post must round-trip through the owning domain's event loop.
ctrl=$(curl -sf -m 5 -X POST -d '{"lo":16,"hi":17,"policy":"HardDeny"}' \
    "http://$ADDR2/policy") || { LOG="$LOG2" fail "POST /policy unreachable (sharded)"; }
echo "$ctrl" | grep -q '"applied": "policy_swap"' \
    || { LOG="$LOG2" fail "POST /policy rejected on sharded farm: $ctrl"; }

kill -TERM $PID2
rc=0
wait $PID2 || rc=$?
[ "$rc" = 0 ] || { LOG="$LOG2" fail "sharded gqfarm exited $rc after SIGTERM, want 0"; }
grep -q 'soak ended' "$LOG2" || { LOG="$LOG2" fail "sharded clean-shutdown line missing from log"; }
rm -f "$LOG2"

echo "serve_smoke: OK"
