# Tier-1 is what the roadmap requires green: build + tests.
# `make ci` is the tier-1+ gate: formatting, vet, build, the full test
# suite under the race detector with shuffled test order (exercising the
# parallel experiment scheduler and the jasd worker pool, and running the
# TestE2E real-daemon rows), the workload pack calibration gate
# (quick-scale scalars + report vs testdata goldens for all three packs),
# and a one-shot benchmark smoke of the Figure 2 pipeline. The *-smoke
# targets run one TestE2E row each.

GO ?= go

.PHONY: all build test ci fmt vet race equiv calibrate bench-smoke bench-json report service-smoke sweep-smoke loadgen-smoke store-smoke shard-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# The batched path must be bit-equivalent to the per-instruction
# reference, and the core-sharded schedule bit-equivalent to the fused
# loop at every shard count, batch size, queue depth, and GOMAXPROCS; run
# those guards on their own so a failure names them directly, then once
# more under the race detector so the concurrent schedule (shard workers,
# merge and accountants, and their teardown) is exercised for data races
# too.
equiv:
	$(GO) test -run 'TestDetailStreamEquivalence' ./internal/sim/
	$(GO) test -run 'TestSharded' ./internal/power4/
	$(GO) test -run 'TestEngineSharded' ./internal/sim/
	$(GO) test -race -run 'TestShardedEquivalence|TestEngineSharded|TestStreamMuxShardedParity|TestEngineShardTeardown|TestDetailStreamEquivalence' ./internal/power4/ ./internal/sim/ ./internal/hpm/

# The workload-pack calibration gate: every registered scenario pack
# (jas2004, dataanalytics, virtweb) re-derives its quick-scale headline
# scalars and full markdown report and must match the pinned goldens
# under testdata/ byte for byte. jas2004's report golden is
# testdata/golden_report_quick.md itself, so this doubles as the
# zero-behaviour-change guard for the workload refactor. Regenerate
# deliberately with `go run ./cmd/calibrate -update -workload all`.
calibrate:
	$(GO) run ./cmd/calibrate -check -workload all

# The floor check (JAS_BENCH_FLOOR=1) fails if the sharded-auto detail
# stream is slower than the fused loop: the production schedule may never
# be a pessimization on the CI host.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig2|BenchmarkDetailStream|BenchmarkBuildReport' -benchtime 1x .
	JAS_BENCH_FLOOR=1 $(GO) test -run 'TestShardedFloor' -count 1 .

# Measured numbers for the README perf table: the stream benchmarks get
# 5 runs of 6 iterations (min-of-5 rides out shared-host noise), the
# full-report benchmark is too slow for that and gets 3 single-shot runs,
# and the jasd server path (submit + dedup + cached-report serve, client
# parallelism 1/4/8) gets 3 runs of 300 round trips. BENCH_OUT names the
# new artifact and is required, so a bare run cannot overwrite a committed
# trajectory point; BENCH_BASELINE (a previous artifact, by default the
# latest committed one) adds per-benchmark min-vs-min speedup deltas to it.
BENCH_BASELINE ?= BENCH_PR10.json
bench-json:
	@if [ -z "$(BENCH_OUT)" ]; then \
	  echo "usage: make bench-json BENCH_OUT=<new artifact>.json [BENCH_BASELINE=$(BENCH_BASELINE)]" >&2; \
	  exit 2; \
	fi
	{ $(GO) test -run '^$$' -bench 'BenchmarkDetailStream' -benchmem -benchtime 6x -count 5 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkLoadgenWindow' -benchmem -benchtime 1000x -count 5 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkBuildReport' -benchmem -benchtime 1x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSweepGrid' -benchtime 1x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkServeRuns' -benchtime 300x -count 3 ./internal/service/ ; } \
	| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -out $(BENCH_OUT)
	@cat $(BENCH_OUT)

# TestE2E rows (e2e_test.go): real jasd/jasctl/jasrun binaries. service:
# golden-report diff, cancel, TTL eviction, SIGTERM drain. sweep: a 12-cell
# grid costs one request-level simulation. loadgen: a ramp spec and its
# recorded trace are distinct jobs with byte-identical reports. store:
# kill -9 and restart re-serve with zero simulations, and two replicas
# sharing one -store-dir cost one simulation total. shard: jasrun report
# vs golden and the shard gauge/merge-stall series.
service-smoke:
	$(GO) test -count=1 -run '^TestE2E$$/^service$$' .
sweep-smoke:
	$(GO) test -count=1 -run '^TestE2E$$/^sweep$$' .
loadgen-smoke:
	$(GO) test -count=1 -run '^TestE2E$$/^loadgen$$' .
store-smoke:
	$(GO) test -count=1 -run '^TestE2E$$/^store$$' .
shard-smoke:
	$(GO) test -count=1 -run '^TestE2E$$/^shard$$' .

ci: fmt vet build race equiv calibrate bench-smoke

# Regenerate the paper-vs-measured table (EXPERIMENTS.md format).
report:
	$(GO) run ./cmd/jasrun -markdown
