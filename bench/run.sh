#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Every file the Go toolchain and the benchmark write stays inside the
# checkout, under .bench_build/ (build cache, telemetry, temp dirs) and
# bench/out/ (span files).
#
#   bash bench/run.sh --workload st-roster --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C bench build -o "$build/dspatch-bench" .
exec "$build/dspatch-bench" "$@"
