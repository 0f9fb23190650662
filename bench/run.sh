#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out f]
#
# Run it from the repository root. Every build product, cache and output
# stays under .bench_build/ in the current directory, and the go command is
# kept off the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$build/specasan-bench-suite" .
exec "$build/specasan-bench-suite" "$@"
