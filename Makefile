# Make targets mirror the CI workflow (.github/workflows/ci.yml): the
# `ci` target reproduces every blocking CI step locally, so a green
# `make ci` predicts a green PR.

# Recipes pipe `go test` through `tee` to keep artifacts; without
# pipefail the pipeline's exit status is tee's, and a panicking
# benchmark run would exit 0. Bash with pipefail makes every pipe
# stage's failure fatal (bench-smoke-selftest proves it stays fixed).
SHELL := /bin/bash
.SHELLFLAGS := -eu -o pipefail -c

GO ?= go

# The tier-1 perf benchmark set guarded by the regression gate
# (bench_perf_test.go; every benchmark there is named BenchmarkPerf*).
PERF_BENCH = ^BenchmarkPerf
PERF_BENCHFLAGS = -bench='$(PERF_BENCH)' -benchtime=5x -count=3 -run='^$$'

# bench-smoke knobs: the selftest narrows the package set to the
# build-tag-gated failure injection and redirects the artifact.
BENCH_PKGS ?= ./...
BENCH_OUT ?= BENCH_ci.json
BENCH_TAGS ?=

.PHONY: build test deadcode race bench-harness bench bench-baseline bench-check bench-smoke bench-smoke-selftest sweep-smoke serve-smoke convert-smoke remediate-smoke profile-gen fuzz-smoke conform cover vet loc lint ci clean

## build: compile every package and command
build:
	$(GO) build ./...

## vet: static analysis via go vet, plus gofmt over the tracked Go
## files (any file gofmt would change fails the target)
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

## loc: non-test Go lines outside benchmark/ (the "net non-test lines"
## of ROADMAP)
loc:
	@./scripts/loc.sh

## test: the tier-1 test suite
test:
	$(GO) test ./...

## deadcode: the reachability check alone — fails on every non-test
## function that no cmd/* or examples/* main, no benchmark/ file and no
## paper benchmark of bench_test.go reaches (deadcode_test.go; the
## keep-list there names the exceptions and why)
deadcode:
	$(GO) test -run '^TestDeadcode' -count=1 .

## race: the full test suite under the race detector (certifies the
## parallel analysis engine)
race:
	$(GO) test -race ./...

## bench-harness: vet and test the out-of-module benchmark harness
## (benchmark/, the program `bash benchmark/run.sh` builds) against this
## checkout, so an internal API change that breaks it fails here, not in
## the benchmark run (about 15 s)
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## bench: full benchmark battery with memory stats (regenerates the
## paper's tables/figures as metrics; slow)
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

## bench-baseline: run the tier-1 perf set and record it as the local
## regression baseline (BENCH_baseline.json). Refresh after intentional
## perf changes, on the machine you develop on.
bench-baseline:
	$(GO) test $(PERF_BENCHFLAGS) . | tee BENCH_perf.txt
	$(GO) run ./cmd/tsubame-benchcheck record -in BENCH_perf.txt -out BENCH_baseline.json

## bench-check: run the tier-1 perf set and fail on any benchmark more
## than 15% slower than BENCH_baseline.json. ns/op is machine-dependent,
## so compare against a baseline recorded on the same machine; CI runs
## the hermetic variant (merge-base vs head on one runner).
bench-check:
	$(GO) test $(PERF_BENCHFLAGS) . | tee BENCH_perf.txt
	$(GO) run ./cmd/tsubame-benchcheck check -baseline BENCH_baseline.json -current BENCH_perf.txt -threshold 15

## bench-smoke: every benchmark exactly once, machine-readable; a
## panicking or hanging benchmark fails this target (pipefail above —
## tee must not mask go test's exit). Produces BENCH_ci.json for the CI
## artifact.
bench-smoke:
	$(GO) test $(BENCH_TAGS) -bench=. -benchtime=1x -run='^$$' -json $(BENCH_PKGS) | tee $(BENCH_OUT)

## bench-smoke-selftest: prove the pipe-masking fix — inject a panicking
## benchmark (build tag benchfailinject) and require bench-smoke to
## fail. Guards the "panicking benchmark fails the PR" CI promise.
bench-smoke-selftest:
	@if $(MAKE) bench-smoke BENCH_TAGS='-tags benchfailinject' BENCH_PKGS=./internal/sim/ BENCH_OUT=/dev/null >/dev/null 2>&1; then \
		echo "bench-smoke-selftest: FAIL — injected benchmark panic was swallowed (pipe masking is back)"; \
		exit 1; \
	else \
		echo "bench-smoke-selftest: ok — injected benchmark failure fails bench-smoke"; \
	fi

## sweep-smoke: kill-and-resume determinism of tsubame-sweep — run a
## tiny grid to completion, rerun it with a SIGKILL mid-flight, resume,
## and require the merged report to be byte-identical.
sweep-smoke:
	./scripts/sweep_smoke.sh

## serve-smoke: black-box smoke of the tsubame-serve HTTP service — boot
## the binary, stream the committed seed-42 trace in two chunks with
## queries between them, and require the fully-ingested analyze/digest
## responses to match the batch CLIs' goldens byte for byte
## (docs/SERVICE.md).
serve-smoke:
	$(GO) test ./e2e -run '^TestServeCLI' -count=1 -v

## profile-gen: CPU and allocation pprof profiles of the end-to-end 100k
## generate+encode pipeline (BenchmarkPerfGenerateEncode100k). Inspect
## with `go tool pprof PROFILE_gen_cpu.out`; CI uploads both profiles as
## an artifact next to the BENCH_delta table.
profile-gen:
	$(GO) test -bench='^BenchmarkPerfGenerateEncode100k$$' -benchtime=20x -run='^$$' \
		-cpuprofile PROFILE_gen_cpu.out -memprofile PROFILE_gen_mem.out .

## fuzz-smoke: 105 s of coverage-guided fuzzing on the trace parsers,
## the Weibull fit's Pow kernel and the radix sort kernel, 15 s per
## target. Go permits one -fuzz target per invocation, so the seven
## targets run back to back.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadCSV$$' -fuzztime=15s -run='^$$' ./internal/trace/
	$(GO) test -fuzz='^FuzzReadNDJSON$$' -fuzztime=15s -run='^$$' ./internal/trace/
	$(GO) test -fuzz='^FuzzReadNDJSONChunks$$' -fuzztime=15s -run='^$$' ./internal/trace/
	$(GO) test -fuzz='^FuzzParseNDJSONRecord$$' -fuzztime=15s -run='^$$' ./internal/trace/
	$(GO) test -fuzz='^FuzzReadTSBC$$' -fuzztime=15s -run='^$$' ./internal/trace/
	$(GO) test -fuzz='^FuzzPowKernel$$' -fuzztime=15s -run='^$$' ./internal/dist/
	$(GO) test -fuzz='^FuzzSortFloat64s$$' -fuzztime=15s -run='^$$' ./internal/stats/

## remediate-smoke: CLI contracts of the closed-loop policy comparison —
## the canonical tsubame-remediate report must match the committed e2e
## golden, reproduce byte-identically across runs and worker counts, and
## reject bad flags with exit 2 (docs/REMEDIATION.md).
remediate-smoke:
	./scripts/remediate_smoke.sh

## convert-smoke: lossless-conversion gate for the columnar data plane —
## generate a 100k-record trace, convert NDJSON -> .tsbc -> NDJSON, and
## require byte identity, at GOMAXPROCS=1 and GOMAXPROCS=4 with the
## files of the two widths identical, plus a streaming .tsbc digest
## byte-identical to the batch CSV digest (docs/TRACE-FORMAT.md). Set CONVERT_SMOKE_DIR
## to keep the intermediate files for inspection on failure.
convert-smoke:
	$(GO) test ./e2e -run '^TestConvertSmoke' -count=1 -v

## conform: the statistical conformance gate — generate both systems
## across the canonical 32-seed set and check every published statistic
## of the paper (docs/VALIDATION.md). Fails on calibration drift.
conform:
	$(GO) run ./cmd/tsubame-conform -system both -v -out CONFORM_report.json

## cover: the tier-1 suite with a coverage profile; prints the summary
## and leaves COVER_profile.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=COVER_profile.out -covermode=atomic ./...
	$(GO) tool cover -func=COVER_profile.out | tail -1

## lint: golangci-lint if installed (blocking in CI; optional locally)
lint:
	@command -v golangci-lint >/dev/null 2>&1 \
		&& golangci-lint run ./... \
		|| echo "golangci-lint not installed; skipping (CI runs it as a blocking job)"

## ci: every blocking CI step, in CI's order
ci: build vet deadcode test race bench-harness conform bench-smoke bench-smoke-selftest sweep-smoke serve-smoke convert-smoke remediate-smoke fuzz-smoke

clean:
	rm -f BENCH_ci.json BENCH_perf.txt PROFILE_gen_cpu.out PROFILE_gen_mem.out CONFORM_report.json COVER_profile.out repro.test
	rm -rf SWEEP_smoke.d REMEDIATE_smoke.d
