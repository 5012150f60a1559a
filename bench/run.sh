#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it. Run from the
# repository root:
#
#   bash bench/run.sh --workload sweep-fleet --seed 1 --seconds 30 --trace 0
#
# The build cache, the go command's config and telemetry, the binary and
# the run's scratch files all live under .bench_build/ in the working
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/bench" && go build -o "$build/sdcbench" .)
exec "$build/sdcbench" "$@"
