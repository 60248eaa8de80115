#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
