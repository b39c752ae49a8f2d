#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root, with
# every build artifact kept under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload analyze-100k --seed 42 --seconds 25 --trace 0
#   bash benchmark/run.sh compare A.ndjson B.ndjson
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$build"
go -C benchmark build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
