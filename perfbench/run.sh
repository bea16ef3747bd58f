#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; the
# arguments pass through (--workload, --seed, --seconds, --trace).
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
