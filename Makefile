GO ?= go

.PHONY: all build vet staticcheck test race bench smoke smoke-trace validate-perf perfgate planbench real-race fuzz-short fault-race reportcheck servgate perfbench-selftest perfpair ci

all: build

build:
	$(GO) build ./...

# vet also fails when any Go file in the tree is not gofmt-formatted
# (gofmt -l lists the offenders).
GOFMT ?= gofmt
vet:
	$(GO) vet ./...
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck runs when the binary is available (CI installs it; local
# runs without it just skip).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# smoke proves the parallel sweep engine end to end on one experiment.
smoke:
	$(GO) run ./cmd/packbench -exp fig3 -quick -parallel 4

# smoke-trace proves the observability layer end to end: the Gantt,
# matrix, and critical-path renderers, the real backend's matrix (built
# from the same event stream), Chrome traces of both backends (virtual
# and wall-clock) that parse as JSON (Go's encoder wrote them, so a
# cheap well-formedness check via the json tooling suffices), and a
# traced sweep under delay faults, whose critical paths must all
# terminate.
smoke-trace:
	$(GO) run ./cmd/packtrace -shape 4096 -dist "CYCLIC(4) ONTO 8" -matrix -critpath
	$(GO) run ./cmd/packtrace -backend real -shape 4096 -dist "CYCLIC(4) ONTO 8" -matrix
	$(GO) run ./cmd/packtrace -shape 4096 -dist "CYCLIC(4) ONTO 8" -format chrome -o /tmp/packtrace-smoke.json
	$(GO) run ./internal/tools/jsoncheck /tmp/packtrace-smoke.json traceEvents
	$(GO) run ./cmd/packtrace -backend real -shape 4096 -dist "CYCLIC(4) ONTO 8" -format chrome -o /tmp/packtrace-real.json
	$(GO) run ./internal/tools/jsoncheck /tmp/packtrace-real.json traceEvents
	$(GO) run ./cmd/packbench -exp fig3 -quick -faults 42:delay=0.05 -trace-dir /tmp/packbench-delay-trace >/dev/null

# validate-perf checks the packbench -json report: it must parse and
# carry the current schema marker (packbench exits non-zero on either
# failure, and jsoncheck re-verifies from a separate process).
validate-perf:
	$(GO) run ./cmd/packbench -exp fig3 -quick -parallel 2 -json /tmp/packbench-perf.json >/dev/null
	$(GO) run ./internal/tools/jsoncheck /tmp/packbench-perf.json schema=packbench-perf/v8

# perfgate is the CI correctness gate of the paper reproduction: re-run
# the full quick sweep and diff it against the committed baseline with
# cmd/packdiff. Every figure of the report (tables, rows, machine runs,
# virtual_ms, derived means, the service object) must match the
# baseline bit-for-bit, and every baseline row must be present — any
# difference is a correctness regression, or a grid change that needs a
# new baseline, and fails the build.
#
# The sweep runs on four workers, so the gate also exercises the
# collect/prefetch path. Each report row books its points in the
# serial replay's order, which makes every figure the same at any
# -parallel (DESIGN.md §10).
PERFGATE_BASELINE ?= BENCH_pr20.json
PERFGATE_OUT      ?= /tmp/packbench-perfgate.json
PERFGATE_DELTA    ?= /tmp/packdiff-delta.md
perfgate:
	$(GO) run ./cmd/packbench -exp all -quick -seed 1 -parallel 4 \
		-service 1000000 -json $(PERFGATE_OUT) >/dev/null
	$(GO) run ./cmd/packdiff -o $(PERFGATE_DELTA) $(PERFGATE_BASELINE) $(PERFGATE_OUT)

# planbench is the plan-cache acceptance gate: the repeat-traffic
# experiment's cost-model run must show a cache hit rate >= 0.99 after
# warmup, and a measured row on the real backend at the repo
# benchmark's pack-warm shape (N=2^20, P=2, W=64, CMS PACK then CSS
# UNPACK, one mask per paper density, minimum of 7 alternating round
# trips each) must show warm round trips summing to no more than cold
# ones (packbench exits non-zero when either check fails).
planbench:
	$(GO) run ./cmd/packbench -exp planrepeat -quick -seed 1 -plan-gate

# real-race runs the cross-backend conformance grid and the transport
# layer's own suite under the race detector: the real backend's SPSC
# queues are lock-free concurrent code and its deadlock proof reads
# them across ranks, so every CI run must prove both race-clean, not
# just correct.
real-race:
	$(GO) test -race -run 'CrossBackend|Conformance' .
	$(GO) test -race ./internal/transport/

# fuzz-short gives each native fuzz target a brief budget of fresh
# coverage-guided inputs on top of the checked-in seed corpus. `go test
# -fuzz` accepts one target per package invocation, hence one line per
# target. New crashers land under testdata/fuzz/<Target>/ — commit them
# as regression seeds.
FUZZTIME ?= 30s
fuzz-short:
	$(GO) test ./internal/comm -run '^$$' -fuzz '^FuzzPrefixReductionSum$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzDimRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzVectorDist$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzScatterRuns$$' -fuzztime $(FUZZTIME)

# fault-race runs the fault-injection, property-differential and
# shared-plan-cache suites under the race detector. `make race` already
# covers them; this target exists to re-run just that surface quickly
# while iterating.
fault-race:
	$(GO) test -race -run 'Fault|Property|PlanCache' ./...

# reportcheck proves the scalable-observability layer end to end: the
# packreport golden dashboard (byte-determinism included), the trace
# sink suites (JSONL stream round-trip, aggregated rollup/Stats
# reconciliation), the flight recorder's dump-on-abort paths
# (structural deadlock and fault-budget exhaustion), and the CLIs on
# real inputs: packreport over every committed baseline, packdiff over
# the committed perfbench fixtures (the change passes, the regressed
# run set must fail), packtrace streaming a JSONL feed alongside a
# Chrome export, and packtrace -open digesting that export.
reportcheck:
	$(GO) test ./internal/report/
	$(GO) test ./internal/trace/ -run 'JSONL|Flight|Agg|Sink'
	$(GO) test ./internal/bench/ -run 'FlightDump'
	$(GO) run ./cmd/packreport -o /tmp/packreport.html \
		BENCH_pr1.json BENCH_pr2.json BENCH_pr3.json BENCH_pr4.json \
		BENCH_pr5.json BENCH_pr6.json BENCH_pr8.json BENCH_pr10.json \
		BENCH_pr16.json BENCH_pr17.json BENCH_pr20.json
	grep -q "Scheme crossover model" /tmp/packreport.html
	grep -q "Serving traffic" /tmp/packreport.html
	$(GO) run ./cmd/packdiff internal/bench/testdata/perfbench_parent.jsonl \
		internal/bench/testdata/perfbench_change.jsonl >/dev/null
	! $(GO) run ./cmd/packdiff internal/bench/testdata/perfbench_parent.jsonl \
		internal/bench/testdata/perfbench_regressed.jsonl >/dev/null 2>&1
	$(GO) run ./cmd/packtrace -shape 4096 -dist "CYCLIC(4) ONTO 8" \
		-jsonl /tmp/packtrace-feed.jsonl -format chrome -o /tmp/packtrace-open.json
	test -s /tmp/packtrace-feed.jsonl
	$(GO) run ./cmd/packtrace -open /tmp/packtrace-open.json

# servgate is the serving-layer acceptance gate, in two deterministic
# halves. The first is the latency gate: packserve replays the 1M-
# request open-loop arrival process through the discrete-event latency
# model (pure virtual time, seconds of wall clock), prints p50/p99/p999
# and fails when the p99 exceeds the threshold — the figures are a pure
# function of the seed, so the gate cannot flake. The second is the
# byte-correctness soak: the same arrival stream really executes
# against the concurrent server on the emulator, and every response is
# compared byte-for-byte with the sequential reference (small layouts
# keep 1M requests to minutes; override SERVSOAK_REQUESTS to trim).
SERVGATE_REQUESTS ?= 1000000
SERVGATE_P99_US   ?= 6000
SERVSOAK_REQUESTS ?= 1000000
servgate:
	$(GO) run ./cmd/packserve -requests $(SERVGATE_REQUESTS) -seed 1 -gate-p99 $(SERVGATE_P99_US)
	$(GO) run ./cmd/packserve -requests $(SERVSOAK_REQUESTS) -seed 1 -soak -mix small

# perfbench-selftest runs the repo benchmark's own test suite
# (perfbench/selftest_test.go: a short smoke run of every workload with
# its outputs verified). perfbench is a separate Go module that replaces
# packunpack with this checkout, so `go test ./...` at the root never
# reaches it.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

# perfpair compares this tree with the commit BASE on the repo benchmark
# (BENCHMARK.json): for each seed of SEEDS and each workload it runs
# perfbench/run.sh for the benchmark's run_seconds on this tree and on
# a git worktree of BASE under .bench_build/, alternating which side
# runs first, appends each side's lines to
# .bench_build/perfpair/{parent,change}.jsonl, and compares the two
# files with packdiff (markdown also in .bench_build/perfpair/packdiff.md).
# Use seeds the change was not tuned on. Not part of ci: ten seeds of
# the three workloads take about 40 minutes.
#
#	make perfpair BASE=HEAD~1 SEEDS="101 102 103"
perfpair:
	@test -n "$(BASE)" && test -n "$(SEEDS)" || { echo 'usage: make perfpair BASE=<ref> SEEDS="<seed> ..."' >&2; exit 2; }
	rm -rf .bench_build/perfpair
	git worktree prune
	mkdir -p .bench_build/perfpair
	git worktree add --detach .bench_build/perfpair/base $(BASE)
	@secs=$$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json); \
	workloads=$$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); \
	first=change; \
	for seed in $(SEEDS); do for w in $$workloads; do \
		for side in $$first $$(test $$first = change && echo parent || echo change); do \
			root=.; test $$side = change || root=.bench_build/perfpair/base; \
			echo "perfpair: $$side $$w seed $$seed ($$secs s)"; \
			bash $$root/perfbench/run.sh --workload $$w --seed $$seed --seconds $$secs --trace 0 \
				>>.bench_build/perfpair/$$side.jsonl || true; \
		done; \
		first=$$(test $$first = change && echo parent || echo change); \
	done; done
	git worktree remove --force .bench_build/perfpair/base
	$(GO) run ./cmd/packdiff -o .bench_build/perfpair/packdiff.md \
		.bench_build/perfpair/parent.jsonl .bench_build/perfpair/change.jsonl

ci: vet staticcheck build race real-race smoke smoke-trace validate-perf perfgate planbench reportcheck servgate perfbench-selftest
