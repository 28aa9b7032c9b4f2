#!/bin/sh
# smoke_stream.sh — streaming-pipeline smoke test, run by
# `make smoke-stream` and the CI stream-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. record a trace and tile it with -repeat until the decoded form is
#      far larger than the daemon's streaming window,
#   3. start an oracle daemon whose -stream-window exceeds the decoded
#      trace, so it holds the trace whole and analyzes it after the seal;
#      submit, and keep its result (digest, sequence, miss ratios) as the
#      oracle,
#   4. start a streaming daemon with a small -stream-window, -upload-dir,
#      and GOMEMLIMIT well below the decoded trace size; submit the same
#      trace over a plain streamed POST and require the identical digest,
#      sequence and miss ratios,
#   5. check the streaming metrics: at least one streamed job, many
#      chunks, the buffered-bytes gauge back at zero, and the peak gauge
#      within the configured window,
#   6. exercise the resumable upload protocol: create a session, PATCH
#      the first chunk, replay it with a stale offset (the retry a client
#      sends after a dropped connection) and require 409 plus the durable
#      offset in the Upload-Offset header, then hand the half-finished
#      session to `layoutctl -upload -upload-id` to resume, finalize, and
#      wait — requiring a cache hit on the same digest,
#   7. require overlapped stream.decode/stream.feed spans in the job's
#      trace timeline, zero open upload sessions, and a clean drain.
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
REPEAT=32
# 256 KiB of decoded trace in flight per streamed submission; the
# decoded trace itself is ~135x that (REPEAT * 276687 refs * 4 B).
WINDOW=262144
# Soft heap bound far below the decoded trace: a held submission could
# not respect this, a streaming one must.
MEMLIMIT=25MiB
CHUNK1=4194304

echo "smoke-stream: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-stream: recording a $PROG trace tiled x$REPEAT"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb -repeat "$REPEAT"
TRACE_BYTES=$(wc -c <"$WORK/t.trace")
[ "$TRACE_BYTES" -gt $((8 * WINDOW)) ] || {
    echo "smoke-stream: trace too small ($TRACE_BYTES B) to exercise the window" >&2
    exit 1
}
echo "smoke-stream: trace file is $TRACE_BYTES bytes (window $WINDOW)"
# Every reference takes at least one encoded byte and four decoded ones,
# so this window holds the whole decoded trace.
ORACLE_WINDOW=$((4 * TRACE_BYTES))
command -v jq >/dev/null 2>&1 || { echo "smoke-stream: jq is required" >&2; exit 1; }

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

start_daemon() {
    # $1 = extra flags appended verbatim; $2 = log file; $3 = GOMEMLIMIT or ""
    rm -f "$WORK/addr"
    # shellcheck disable=SC2086
    env ${3:+GOMEMLIMIT=$3} "$WORK/layoutd" -addr 127.0.0.1:0 -jobs 2 -queue 8 \
        -opt-workers 4 $1 -ready-file "$WORK/addr" >"$2" 2>&1 &
    DAEMON_PID=$!
    i=0
    while [ ! -s "$WORK/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-stream: layoutd never became ready" >&2
            cat "$2" >&2
            exit 1
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "smoke-stream: layoutd exited early" >&2
            cat "$2" >&2
            exit 1
        }
        sleep 0.1
    done
    ADDR="http://$(cat "$WORK/addr")"
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    i=0
    while kill -0 "$DAEMON_PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "smoke-stream: layoutd did not exit after SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
}

# layout_of prints the served layout's sequence and miss ratios, the
# parts of a result that the analysis and the replay compute.
layout_of() {
    fetch "$ADDR/v1/layouts/$1" | jq -c '{sequence: .report.Sequence, missBefore, missAfter}'
}

echo "smoke-stream: held oracle run (-stream-window $ORACLE_WINDOW)"
start_daemon "-stream-window $ORACLE_WINDOW" "$WORK/layoutd-held.log" ""
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/held.json"
grep -q '"status": "done"' "$WORK/held.json"
DIGEST_BUF=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/held.json" | head -1 | cut -d'"' -f4)
[ -n "$DIGEST_BUF" ] || { echo "smoke-stream: no oracle digest" >&2; exit 1; }
layout_of "$DIGEST_BUF" >"$WORK/held-layout.json"
jq -e '(.sequence | length) > 0' "$WORK/held-layout.json" >/dev/null
# The oracle held the trace: nothing streamed through its ring.
fetch "$ADDR/metrics" | grep -q '^layoutd_stream_jobs_total 0$'
stop_daemon

echo "smoke-stream: streaming daemon (window $WINDOW, GOMEMLIMIT $MEMLIMIT)"
start_daemon "-stream-window $WINDOW -upload-dir $WORK/uploads" \
    "$WORK/layoutd-stream.log" "$MEMLIMIT"

echo "smoke-stream: streamed POST of the same trace"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/streamed.json"
grep -q '"status": "done"' "$WORK/streamed.json"
DIGEST_STREAM=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/streamed.json" | head -1 | cut -d'"' -f4)
JOB_ID=$(grep -o '"id": "[^"]*"' "$WORK/streamed.json" | head -1 | cut -d'"' -f4)
[ "$DIGEST_STREAM" = "$DIGEST_BUF" ] || {
    echo "smoke-stream: streamed digest $DIGEST_STREAM != oracle $DIGEST_BUF" >&2
    exit 1
}
layout_of "$DIGEST_STREAM" >"$WORK/streamed-layout.json"
cmp -s "$WORK/held-layout.json" "$WORK/streamed-layout.json" || {
    echo "smoke-stream: streamed sequence or miss ratios differ from the held oracle" >&2
    exit 1
}
echo "smoke-stream: streamed digest, sequence and miss ratios match the held oracle"

echo "smoke-stream: checking streaming metrics"
fetch "$ADDR/metrics" >"$WORK/metrics1.txt"
grep -q '^layoutd_stream_jobs_total 1$' "$WORK/metrics1.txt"
CHUNKS=$(awk '/^layoutd_stream_chunks_total /{print $2}' "$WORK/metrics1.txt")
[ -n "$CHUNKS" ] && [ "$CHUNKS" -gt 8 ] || {
    echo "smoke-stream: expected many streamed chunks, got '$CHUNKS'" >&2
    exit 1
}
grep -q '^layoutd_stream_buffered_bytes 0$' "$WORK/metrics1.txt"
PEAK=$(awk '/^layoutd_stream_buffered_peak_bytes /{print $2}' "$WORK/metrics1.txt")
[ -n "$PEAK" ] && [ "$PEAK" -gt 0 ] && [ "$PEAK" -le "$WINDOW" ] || {
    echo "smoke-stream: peak buffered bytes '$PEAK' outside (0, $WINDOW]" >&2
    exit 1
}
echo "smoke-stream: $CHUNKS chunks streamed, peak $PEAK B buffered (window $WINDOW)"

if command -v curl >/dev/null 2>&1; then
    echo "smoke-stream: resumable upload with a simulated dropped connection"
    curl -fsS -X POST "$ADDR/v1/uploads" >"$WORK/session.json"
    UPLOAD_ID=$(grep -o '"id": "[^"]*"' "$WORK/session.json" | head -1 | cut -d'"' -f4)
    [ -n "$UPLOAD_ID" ] || { echo "smoke-stream: no upload session id" >&2; exit 1; }

    head -c "$CHUNK1" "$WORK/t.trace" >"$WORK/part1"
    curl -fsS -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$ADDR/v1/uploads/$UPLOAD_ID" >/dev/null

    # A client that lost the 204 retries the same chunk: the daemon must
    # refuse with 409 and report the durable offset to resync from.
    CODE=$(curl -s -o /dev/null -D "$WORK/conflict.hdr" -w '%{http_code}' \
        -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$ADDR/v1/uploads/$UPLOAD_ID")
    [ "$CODE" = "409" ] || { echo "smoke-stream: stale retry got $CODE, want 409" >&2; exit 1; }
    grep -iq "^upload-offset: $CHUNK1" "$WORK/conflict.hdr" || {
        echo "smoke-stream: 409 did not report durable offset $CHUNK1" >&2
        cat "$WORK/conflict.hdr" >&2
        exit 1
    }
    echo "smoke-stream: stale retry rejected with 409 at offset $CHUNK1"

    echo "smoke-stream: resuming the session with layoutctl -upload-id"
    "$WORK/layoutctl" -addr "$ADDR" -upload "$WORK/t.trace" -upload-id "$UPLOAD_ID" \
        -prog "$PROG" -opt "$OPT" -wait >"$WORK/resumed.json"
    grep -q '"status": "done"' "$WORK/resumed.json"
    grep -q '"cached": true' "$WORK/resumed.json"
    DIGEST_RESUMED=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/resumed.json" | head -1 | cut -d'"' -f4)
    [ "$DIGEST_RESUMED" = "$DIGEST_BUF" ] || {
        echo "smoke-stream: resumed digest $DIGEST_RESUMED != oracle $DIGEST_BUF" >&2
        exit 1
    }
    echo "smoke-stream: resumed upload finalized to a cache hit on the same digest"
else
    echo "smoke-stream: curl not found; driving the full upload through layoutctl"
    "$WORK/layoutctl" -addr "$ADDR" -upload "$WORK/t.trace" \
        -prog "$PROG" -opt "$OPT" -wait >"$WORK/resumed.json"
    grep -q '"status": "done"' "$WORK/resumed.json"
    grep -q '"cached": true' "$WORK/resumed.json"
fi

echo "smoke-stream: checking the overlapped span timeline"
"$WORK/layoutctl" -addr "$ADDR" -trace "$JOB_ID" >"$WORK/trace.txt"
grep -q 'stream.decode' "$WORK/trace.txt"
grep -q 'stream.feed' "$WORK/trace.txt"

fetch "$ADDR/metrics" >"$WORK/metrics2.txt"
grep -q '^layoutd_upload_sessions 0$' "$WORK/metrics2.txt"

echo "smoke-stream: draining"
stop_daemon
grep -q 'drained cleanly' "$WORK/layoutd-stream.log"

echo "smoke-stream: OK"
