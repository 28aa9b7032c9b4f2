#!/bin/sh
# smoke_serve.sh — end-to-end service smoke test, run by `make smoke-serve`
# and the CI service-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. record a trace with tracedump,
#   3. start layoutd on a random port,
#   4. submit the trace via layoutctl and wait for a 200 result,
#   5. fetch the job's span timeline (/v1/jobs/{id}/trace), render it
#      with `layoutctl -trace`, and assert the pipeline phases landed
#      in layoutd_phase_seconds,
#   6. resubmit the identical trace and assert a cache hit via /metrics,
#   7. SIGTERM the daemon and require a clean drain with every job log
#      line carrying a trace_id.
#
# Set SMOKE_WORK to redirect the scratch dir somewhere that survives the
# run (CI points it at a directory uploaded as an artifact on failure);
# without it a mktemp dir is used and removed.
set -eu

if [ -n "${SMOKE_WORK:-}" ]; then
    WORK=$SMOKE_WORK
    mkdir -p "$WORK"
    KEEP_WORK=1
else
    WORK=$(mktemp -d)
    KEEP_WORK=0
fi
DAEMON_PID=""
cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    [ "$KEEP_WORK" = 1 ] || rm -rf "$WORK"
}
trap cleanup EXIT

PROG=458.sjeng
OPT=func-affinity

echo "smoke-serve: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-serve: recording a $PROG trace"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb

echo "smoke-serve: starting layoutd"
"$WORK/layoutd" -addr 127.0.0.1:0 -jobs 2 -queue 8 \
    -ready-file "$WORK/addr" >"$WORK/layoutd.log" 2>&1 &
DAEMON_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-serve: layoutd never became ready" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "smoke-serve: layoutd exited early" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    }
    sleep 0.1
done
ADDR="http://$(cat "$WORK/addr")"
echo "smoke-serve: layoutd at $ADDR"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

fetch "$ADDR/healthz" | grep -q ok

echo "smoke-serve: submitting job"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result1.json"
grep -q '"status": "done"' "$WORK/result1.json"
grep -q '"missBefore"' "$WORK/result1.json"

JOB_ID=$(grep -o '"id": "[^"]*"' "$WORK/result1.json" | head -1 | cut -d'"' -f4)
[ -n "$JOB_ID" ] || { echo "smoke-serve: no job id in result" >&2; exit 1; }

echo "smoke-serve: fetching span timeline for $JOB_ID"
fetch "$ADDR/v1/jobs/$JOB_ID/trace" >"$WORK/trace.json"
grep -q '"trace_id"' "$WORK/trace.json"
grep -q '"name": "queue.wait"' "$WORK/trace.json"
grep -q '"name": "optimize"' "$WORK/trace.json"
grep -q '"name": "affinity.hierarchy"' "$WORK/trace.json"
grep -q '"name": "layout.emit"' "$WORK/trace.json"
grep -q '"name": "cachesim.replay"' "$WORK/trace.json"

echo "smoke-serve: rendering the waterfall via layoutctl -trace"
"$WORK/layoutctl" -addr "$ADDR" -trace "$JOB_ID" >"$WORK/waterfall.txt"
grep -q "job $JOB_ID (done) trace " "$WORK/waterfall.txt"
grep -q 'optimize' "$WORK/waterfall.txt"
grep -q '#' "$WORK/waterfall.txt"

echo "smoke-serve: checking phase histograms in /metrics"
fetch "$ADDR/metrics" >"$WORK/metrics-phase.txt"
grep -q '^layoutd_phase_seconds_count{phase="optimize"} 1$' "$WORK/metrics-phase.txt"
grep -q 'layoutd_phase_seconds_bucket{phase="affinity.hierarchy"' "$WORK/metrics-phase.txt"
grep -q 'layoutd_phase_seconds_bucket{phase="layout.emit"' "$WORK/metrics-phase.txt"
grep -q '^layoutd_queue_wait_seconds_count 1$' "$WORK/metrics-phase.txt"

echo "smoke-serve: checking debug job ring"
fetch "$ADDR/v1/debug/jobs" | grep -q "\"id\": \"$JOB_ID\""

echo "smoke-serve: resubmitting identical trace (expect cache hit)"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result2.json"
grep -q '"cached": true' "$WORK/result2.json"

fetch "$ADDR/metrics" >"$WORK/metrics.txt"
grep -q '^layoutd_cache_hits_total 1$' "$WORK/metrics.txt"
grep -q '^layoutd_jobs_completed_total 1$' "$WORK/metrics.txt"

echo "smoke-serve: draining daemon with SIGTERM"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-serve: layoutd did not exit after SIGTERM" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
grep -q 'drained cleanly' "$WORK/layoutd.log"
DAEMON_PID=""

echo "smoke-serve: checking structured logs carry trace IDs"
grep -q '"msg":"job accepted"' "$WORK/layoutd.log"
grep -q '"msg":"job finished"' "$WORK/layoutd.log"
if grep '"job":' "$WORK/layoutd.log" | grep -qv '"trace_id":'; then
    echo "smoke-serve: job log line without trace_id" >&2
    grep '"job":' "$WORK/layoutd.log" | grep -v '"trace_id":' >&2
    exit 1
fi

echo "smoke-serve: OK"
