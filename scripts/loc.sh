#!/usr/bin/env bash
# Prints the number of non-test Go lines in the repository, leaving out
# the out-of-module benchmark harness (benchmark/) and its build output
# (.bench_build/). Run from anywhere: `make loc` or `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
find . \( -path ./.git -o -path ./benchmark -o -path ./.bench_build \) -prune \
	-o -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 cat | wc -l | tr -d ' '
