#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file the benchmark writes stay under .bench_build/ in that root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
