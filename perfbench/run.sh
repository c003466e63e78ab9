#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload repro-all --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and the traced runs' span files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
