#!/usr/bin/env bash
# Build file and launcher of the benchmark, the command BENCHMARK.json
# registers: builds ./benchmark from source inside the checkout (build
# cache, module cache and binary all under .bench_build, nothing outside
# the checkout is written) and runs it with the caller's arguments.
#
#   bash benchmark/run.sh --workload pp-shm-1k --seed 1 --seconds 15 --trace 0
#
# For interactive use `go run ./benchmark ...` is the same program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/ckdbench" ./benchmark
exec "$build/ckdbench" "$@"
