#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it with the
# given arguments, e.g.
#   bash layoutbench/run.sh --workload analysis --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and temp files stay under
# .bench_build in the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/bin/layoutbench" .) >&2
cd "$root"
exec "$out/bin/layoutbench" "$@"
