#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# arguments given, e.g.
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, the ingest workload's data directory) stays under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The build cache, temporary files, module path and the toolchain's
# telemetry counters (under XDG_CONFIG_HOME) all stay in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C "$here" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
