#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# arguments it is given. Everything the build and the run write stays under
# .bench_build/ in the checkout: Go's build cache, its temporary files, the
# binary, the durable tier's directories and the span dumps.
#
#   bash benchmark/run.sh --workload hot-local --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/cachebench" ./benchmark
exec "$out/cachebench" "$@"
