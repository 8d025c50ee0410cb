#!/usr/bin/env bash
# Builds the host-clock benchmark from source and runs it. Run from the
# root of the repository; arguments pass through to the benchmark:
#
#   bash hostbench/run.sh --workload pio-wide --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build/hostbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd hostbench && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
