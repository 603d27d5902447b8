#!/bin/sh
# The command BENCHMARK.json names: build the benchmark from source and run
# it, from the root of a checkout, with everything the Go toolchain writes
# (build cache, work directory, the binary) kept under .bench_build/ in that
# checkout. People can just as well type: go run ./benchmark -workload ...
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
