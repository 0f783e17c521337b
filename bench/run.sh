#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache, temporary files, the binary) stays under
# .bench_build in the checkout, and so does the store file of solve-ooc.
#
#   bash bench/run.sh --workload solve-dram --seed 1 --seconds 16 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
