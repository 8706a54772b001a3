#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload fit-solve --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare A.json B.json
# Run it from the root of the checkout. Build cache, binary, result files
# and spans all stay under .bench_build in the checkout; the toolchain is
# kept local and the module proxy off, so the build never leaves the
# machine.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
