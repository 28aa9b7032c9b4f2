#!/bin/sh
# bench_json.sh — bench-regression harness, run by `make bench-json` and
# the CI bench-json job.
#
#   bench_json.sh run [out.json]
#       Run the kernel benchmarks (affinity stack passes, TRG
#       construction, footprint curve, co-run simulation and kernel,
#       pair analysis, solo replay, placement solver, streaming decode and
#       feed, resident analysis) with -benchmem and write one JSON document with ns/op,
#       B/op and allocs/op per benchmark, plus the machine it ran on:
#       nproc, GOMAXPROCS (the -N suffix go test gives benchmark names,
#       stripped from the names themselves), the Go version and the
#       CPU model go test reports. BENCHTIME overrides -benchtime
#       (default 3x; CI uses 1x). The benchmarks gated at zero
#       allocations run apart, at BENCHTIME or 10x, whichever is more:
#       allocs/op is the whole run's count divided by its iterations,
#       so a stray runtime allocation in one iteration reads 0, while
#       a kernel that allocates on every call still reads at least 1.
#
#   bench_json.sh check out.json <benchmark> <max-allocs>
#       Exit non-zero if <benchmark>'s allocs_per_op in out.json exceeds
#       <max-allocs>.
#
#   bench_json.sh gate out.json
#       Run check for every gate in scripts/bench_gates.txt, the one
#       allocation-gate table, and exit non-zero if any fails.
#
# Plain shell + awk on `go test -bench` output: no external dependencies.
set -eu

OUT_DEFAULT=BENCH_PR10.json
BENCHTIME=${BENCHTIME:-3x}

# The kernel benchmarks the harness tracks, one per analysis subsystem
# (the TRG reduction on a basic-block-scale graph among them), the
# suite-scale bb-affinity and bb-trg feeds as layoutd runs them on an
# upload in flight, the same two jobs through OptimizeCtx as layoutd runs
# them on a trace it holds (OptimizeResident), plus the end-to-end
# worker sweeps in the root package, the /v1/corun pair
# analysis (its six co-run simulations over four resolved streams, both
# footprint curves and its parts), the co-run kernel alone over resolved
# laps (CorunLaps), the two solo replays a job runs, the
# runtime-telemetry sampler tick, which fires for the process lifetime,
# and the streaming decode over uniform and suite-like symbols.
BENCH_RE='^(BenchmarkBuildHierarchyWorkers|BenchmarkTRGBuildWorkers|BenchmarkBBAffinityFeed|BenchmarkBBTRGFeed|BenchmarkFootprintCurveWorkers|BenchmarkCorunBatchWorkers|BenchmarkBuildHierarchyArena|BenchmarkBuildArena|BenchmarkReduce|BenchmarkWindowFootprintScratch|BenchmarkSpanStartEndDropped|BenchmarkScheduleSolve|BenchmarkStreamDecode|BenchmarkStreamDecodeClustered|BenchmarkStreamFeed|BenchmarkRuntimeSamplerTick|BenchmarkComputePair|BenchmarkCorunLaps|BenchmarkSoloStream|BenchmarkOptimizeResident)$'
PKGS='. ./internal/affinity ./internal/trg ./internal/footprint ./internal/obs ./internal/schedule ./internal/trace ./internal/server ./internal/cachesim ./internal/core'

# The benchmarks gated at zero allocations: the affinity stack passes
# and the TRG interleaving scan once warm, the observability hot paths
# (span start/end, counter, histogram), which ride on every instrumented
# kernel, the traceparent parse/format pair, which runs on every inbound
# request and every peer hop, and the anti-entropy digest-set diff,
# which runs every sweep on every node and must reuse its caller's
# buffer. They run at ZERO_BENCHTIME.
ZERO_RE='^(BenchmarkShardPairHists|BenchmarkBuildShard|BenchmarkSpanStartEnd|BenchmarkRegistryCounterInc|BenchmarkRegistryHistogramObserve|BenchmarkTraceparentParse|BenchmarkTraceparentFormat|BenchmarkAntiEntropyDiff)$'
ZERO_PKGS='./internal/affinity ./internal/trg ./internal/obs ./internal/cluster'
case $BENCHTIME in
*x) iters=${BENCHTIME%x}
    [ "$iters" -ge 10 ] 2>/dev/null || iters=10
    ZERO_BENCHTIME=${iters}x ;;
*)  ZERO_BENCHTIME=$BENCHTIME ;;
esac

run() {
    out=${1:-$OUT_DEFAULT}
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT

    echo "bench-json: running kernel benchmarks (benchtime=$BENCHTIME)" >&2
    go test -run='^$' -bench="$BENCH_RE" -benchmem -benchtime="$BENCHTIME" $PKGS | tee "$raw" >&2
    echo "bench-json: running zero-budget benchmarks (benchtime=$ZERO_BENCHTIME)" >&2
    go test -run='^$' -bench="$ZERO_RE" -benchmem -benchtime="$ZERO_BENCHTIME" $ZERO_PKGS | tee -a "$raw" >&2

    awk -v benchtime="$BENCHTIME" -v zerobenchtime="$ZERO_BENCHTIME" \
        -v nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)" \
        -v gover="$(go env GOVERSION)" '
    /^pkg: /  { pkg = $2 }
    /^goos: / { goos = $2 }
    /^goarch: / { goarch = $2 }
    /^cpu: / && cpu == "" {
        cpu = substr($0, 6)
        gsub(/[\\"]/, "\\\\&", cpu)
    }
    /^Benchmark/ && / ns\/op/ {
        name = $1
        # The -N suffix is GOMAXPROCS; go test leaves it off at 1.
        if (match(name, /-[0-9]+$/)) {
            if (gomaxprocs == "") gomaxprocs = substr(name, RSTART + 1)
            name = substr(name, 1, RSTART - 1)
        }
        sub(/^Benchmark/, "", name)
        iters = $2
        ns = ""; bytes = ""; allocs = ""
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s",
               pkg, name, iters, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END {
        if (gomaxprocs == "") gomaxprocs = 1
        printf "\n  ],\n"
        printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"zero_budget_benchtime\": \"%s\",\n",
               goos, goarch, benchtime, zerobenchtime
        printf "  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"go_version\": \"%s\",\n  \"cpu\": \"%s\"\n}\n",
               nproc, gomaxprocs, gover, cpu
        if (n == 0) exit 3
    }
    BEGIN {
        printf "{\n  \"generated_by\": \"scripts/bench_json.sh\",\n"
        printf "  \"benchmarks\": [\n"
    }' "$raw" > "$out" || { echo "bench-json: no benchmark lines parsed" >&2; exit 1; }

    echo "bench-json: wrote $out" >&2
}

check() {
    file=$1 bench=$2 maxallocs=$3
    awk -v bench="$bench" -v maxallocs="$maxallocs" '
    {
        # One benchmark object per line in the generated file.
        if (index($0, "\"name\": \"" bench "\"") == 0) next
        if (match($0, /"allocs_per_op": [0-9.]+/)) {
            allocs = substr($0, RSTART + 17, RLENGTH - 17) + 0
            found = 1
            if (allocs > maxallocs) {
                printf "bench-json: %s allocs/op regressed: %d > budget %d\n",
                       bench, allocs, maxallocs > "/dev/stderr"
                exit 1
            }
            printf "bench-json: %s allocs/op = %d (budget %d): ok\n",
                   bench, allocs, maxallocs > "/dev/stderr"
        }
    }
    END { if (!found) { printf "bench-json: benchmark %s not found in %s\n",
                        bench, FILENAME > "/dev/stderr"; exit 2 } }' "$file"
}

gate() {
    file=$1 failed=0
    gates=$(dirname "$0")/bench_gates.txt
    # Blank lines and # comments are skipped.
    while read -r bench maxallocs; do
        case "$bench" in ''|'#'*) continue ;; esac
        check "$file" "$bench" "$maxallocs" || failed=1
    done < "$gates"
    return "$failed"
}

usage="usage: bench_json.sh [run [out.json] | check out.json <benchmark> <max-allocs> | gate out.json]"
cmd=${1:-run}
case "$cmd" in
run)
    shift || true
    run "$@"
    ;;
check)
    [ $# -eq 4 ] || { echo "$usage" >&2; exit 2; }
    shift
    check "$@"
    ;;
gate)
    [ $# -eq 2 ] || { echo "$usage" >&2; exit 2; }
    gate "$2"
    ;;
*)
    echo "$usage" >&2
    exit 2
    ;;
esac
