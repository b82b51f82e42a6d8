#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload bulk_64 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
