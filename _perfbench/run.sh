#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload roster-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C _perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
