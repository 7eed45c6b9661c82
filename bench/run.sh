#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload mail-dvp --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module and config
# directories, temporary files, the binary) stays in .bench_build/ at the
# checkout root, and the build never reaches for the network. Without the
# simulator's sources next to bench/ the build, and so the run, fails.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/zombiebench" .
exec "$build/zombiebench" "$@"
