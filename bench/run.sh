#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh --workload corpus-eval --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every run artifact stay under .bench_build/ in the working directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
