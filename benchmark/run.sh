#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash benchmark/run.sh --workload relu_k1_lan --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/pasnet-benchmark" .
exec "$build/pasnet-benchmark" "$@"
