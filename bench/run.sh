#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json and bench/README.md). Every file the
# build and the run write stays under .bench_build/ and bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/lciot-bench" ./bench
exec "$build/lciot-bench" "$@"
