#!/usr/bin/env bash
# run.sh — build the benchmark from this checkout's sources and run it.
#
# Usage (from the repository root):
#   bash edembench/run.sh --workload run-7z-b2 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout: the Go build cache and the binary under .bench_build/, run
# scratch and trace files under .bench_out/. The build fails, and the
# script exits non-zero without printing a result, when the repository
# sources beside this directory are missing.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$here" && go build -o "$build/edembench" .)
exec "$build/edembench" -out "$root/.bench_out" "$@"
