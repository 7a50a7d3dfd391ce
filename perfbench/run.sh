#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it
# with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload headline --seed 1 --seconds 30 --trace 0
#
# Every file the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
