#!/bin/sh
# smoke_schedule.sh — scheduling-service smoke test, run by
# `make smoke-schedule` and the CI schedule-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. record a trace and optimize it under two optimizers, keeping both
#      cached layout digests,
#   3. POST /v1/corun on the pair via `layoutctl -corun` and require a
#      finished pair document with a positive pair cost,
#   4. resubmit the pair in swapped order and require a pair-cache hit,
#   5. POST /v1/schedule over {A, B, A, B} on a 2x2 topology via
#      `layoutctl -schedule` and require: symmetric matrix with zero
#      diagonal, a placement covering all four slots whose cost does not
#      exceed the enumerated worst case, and the metrics trail
#      (corun jobs, schedule pairs, pair-cache hits),
#   6. SIGTERM and require a clean drain.
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
OPT_A=func-affinity
OPT_B=func-trg

command -v jq >/dev/null 2>&1 || { echo "smoke-schedule: jq is required" >&2; exit 1; }

echo "smoke-schedule: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-schedule: recording a $PROG trace"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb

echo "smoke-schedule: starting layoutd"
"$WORK/layoutd" -addr 127.0.0.1:0 -jobs 2 -queue 8 \
    -ready-file "$WORK/addr" >"$WORK/layoutd.log" 2>&1 &
DAEMON_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-schedule: layoutd never became ready" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "smoke-schedule: layoutd exited early" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    }
    sleep 0.1
done
ADDR="http://$(cat "$WORK/addr")"
echo "smoke-schedule: layoutd at $ADDR"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

fetch "$ADDR/healthz" | grep -q ok

echo "smoke-schedule: optimizing the trace under $OPT_A and $OPT_B"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT_A" -wait -json >"$WORK/opt-a.json"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT_B" -wait -json >"$WORK/opt-b.json"
DIG_A=$(jq -r .digest "$WORK/opt-a.json")
DIG_B=$(jq -r .digest "$WORK/opt-b.json")
[ -n "$DIG_A" ] && [ -n "$DIG_B" ] && [ "$DIG_A" != "$DIG_B" ] || {
    echo "smoke-schedule: bad layout digests '$DIG_A' / '$DIG_B'" >&2
    exit 1
}

echo "smoke-schedule: co-run analysis of $OPT_A vs $OPT_B"
"$WORK/layoutctl" -addr "$ADDR" -corun "$DIG_A,$DIG_B" -json >"$WORK/corun.json"
jq -e '.status == "done" and .corun.pairCost > 0' "$WORK/corun.json" >/dev/null
jq -e '.corun.a.missCorun >= .corun.a.missSolo' "$WORK/corun.json" >/dev/null
PAIR_DIGEST=$(jq -r .corun.digest "$WORK/corun.json")

echo "smoke-schedule: human-readable pair report"
"$WORK/layoutctl" -addr "$ADDR" -corun "$DIG_A,$DIG_B" >"$WORK/corun.txt"
grep -q 'defensiveness' "$WORK/corun.txt"
grep -q 'politeness' "$WORK/corun.txt"

echo "smoke-schedule: swapped resubmission must hit the pair cache"
"$WORK/layoutctl" -addr "$ADDR" -corun "$DIG_B,$DIG_A" -json >"$WORK/corun-swap.json"
jq -e --arg d "$PAIR_DIGEST" '.cached == true and .digest == $d' "$WORK/corun-swap.json" >/dev/null

echo "smoke-schedule: pair document is addressable by digest"
fetch "$ADDR/v1/corun/$PAIR_DIGEST" | jq -e --arg d "$PAIR_DIGEST" '.digest == $d' >/dev/null

echo "smoke-schedule: placing {A, B, A, B} on a 2x2 topology"
"$WORK/layoutctl" -addr "$ADDR" \
    -schedule "$DIG_A,$DIG_B,$DIG_A,$DIG_B" -domains 2 -slots 2 -json >"$WORK/schedule.json"
jq -e '.status == "done"' "$WORK/schedule.json" >/dev/null

echo "smoke-schedule: matrix must be symmetric with a zero diagonal"
jq -e '
  .schedule.matrix as $m | ($m | length) as $n |
  ($n == 4) and
  ([range(0; $n) as $i | range(0; $n) as $j |
    ($m[$i][$j] == $m[$j][$i]) and (($i != $j) or ($m[$i][$j] == 0))] | all)
' "$WORK/schedule.json" >/dev/null

echo "smoke-schedule: placement must cover all slots and beat the worst case"
jq -e '
  .schedule as $s |
  ($s.placement.domains | map(length) | add) == 4 and
  $s.worstKnown and
  $s.placement.cost <= $s.worstCost
' "$WORK/schedule.json" >/dev/null

echo "smoke-schedule: rendering the placement table"
"$WORK/layoutctl" -addr "$ADDR" \
    -schedule "$DIG_A,$DIG_B,$DIG_A,$DIG_B" -domains 2 -slots 2 >"$WORK/schedule.txt"
grep -q 'pairwise interference' "$WORK/schedule.txt"
grep -q 'domain 0:' "$WORK/schedule.txt"
grep -q 'domain 1:' "$WORK/schedule.txt"
grep -q 'cached=true' "$WORK/schedule.txt"

echo "smoke-schedule: checking the metrics trail"
fetch "$ADDR/metrics" >"$WORK/metrics.txt"
grep -q '^layoutd_corun_jobs_total 3$' "$WORK/metrics.txt"
grep -q '^layoutd_schedule_jobs_total 2$' "$WORK/metrics.txt"
# {A, B, A, B} has three distinct pairs: (A,B) from the pair cache plus
# (A,A) and (B,B) composed from the two layouts' footprint curves.
grep -q '^layoutd_schedule_pairs_total 2$' "$WORK/metrics.txt"
# Hits: the repeated and swapped corun requests, plus (A,B) inside the
# schedule matrix.
PAIR_HITS=$(awk '/^layoutd_pair_cache_hits_total /{print $2}' "$WORK/metrics.txt")
[ "${PAIR_HITS:-0}" -ge 3 ] || {
    echo "smoke-schedule: expected >=3 pair cache hits, got '$PAIR_HITS'" >&2
    exit 1
}

echo "smoke-schedule: draining daemon with SIGTERM"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-schedule: layoutd did not exit after SIGTERM" >&2
        cat "$WORK/layoutd.log" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
grep -q 'drained cleanly' "$WORK/layoutd.log"
DAEMON_PID=""

echo "smoke-schedule: OK"
