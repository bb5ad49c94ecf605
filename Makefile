GO ?= go

.PHONY: all build vet staticcheck test race bench smoke smoke-trace validate-perf perfgate planbench realbench real-race fuzz-short fault-race metricscheck reportcheck servgate perfbench-selftest ci

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
# from the same event stream), a Chrome trace that parses as JSON (Go's
# encoder wrote it, so a cheap well-formedness check via the json
# tooling suffices), and a traced sweep under delay faults, whose
# critical paths must all terminate.
smoke-trace:
	$(GO) run ./cmd/packtrace -shape 4096 -dist "CYCLIC(4) ONTO 8" -matrix -critpath
	$(GO) run ./cmd/packtrace -backend real -shape 4096 -dist "CYCLIC(4) ONTO 8" -matrix
	$(GO) run ./cmd/packtrace -shape 4096 -dist "CYCLIC(4) ONTO 8" -format chrome -o /tmp/packtrace-smoke.json
	$(GO) run ./internal/tools/jsoncheck /tmp/packtrace-smoke.json traceEvents
	$(GO) run ./cmd/packbench -exp fig3 -quick -faults 42:delay=0.05 -trace-dir /tmp/packbench-delay-trace >/dev/null

# validate-perf checks the packbench -json report: it must parse and
# carry the current schema marker (packbench exits non-zero on either
# failure, and jsoncheck re-verifies from a separate process).
validate-perf:
	$(GO) run ./cmd/packbench -exp fig3 -quick -parallel 2 -json /tmp/packbench-perf.json >/dev/null
	$(GO) run ./internal/tools/jsoncheck /tmp/packbench-perf.json schema=packbench-perf/v7

# perfgate is the CI perf-regression gate: re-run the full quick sweep
# and diff it against the committed baseline with cmd/packdiff. Virtual
# metrics must match the baseline bit-for-bit — any drift is a
# correctness regression and fails the build. Wall/alloc deltas are
# reported but only gate when packdiff runs with -fail-on-wall (CI
# machines are too noisy for that to be the default).
#
# The sweep is pinned to -parallel 1: virtual results are bit-exact
# only between serial runs (worker completion order perturbs float
# accumulation; see DESIGN.md §10). -samples 5 gives each row robust
# wall statistics.
PERFGATE_BASELINE ?= BENCH_pr10.json
PERFGATE_OUT      ?= /tmp/packbench-perfgate.json
PERFGATE_DELTA    ?= /tmp/packdiff-delta.md
perfgate:
	$(GO) run ./cmd/packbench -exp all -quick -seed 1 -parallel 1 \
		-samples 5 -service 1000000 -json $(PERFGATE_OUT) >/dev/null
	$(GO) run ./cmd/packdiff -o $(PERFGATE_DELTA) $(PERFGATE_BASELINE) $(PERFGATE_OUT)

# planbench is the plan-cache acceptance gate: the repeat-traffic
# experiment must show a cache hit rate >= 0.99 after warmup and an
# amortized wall-time speedup >= 1.3x for the planned path on the
# representative configuration (packbench exits non-zero below either
# threshold).
planbench:
	$(GO) run ./cmd/packbench -exp planrepeat -quick -seed 1 -parallel 1 -plan-gate

# realbench runs the measured-vs-modeled speedup family on the real
# shared-memory backend and gates on the P=8-over-P=1 wall speedup of
# the large-N pack sweep. packbench auto-skips the 2x assertion (but
# still prints the curve) when the host has fewer than 8 CPUs — the
# contract is about parallel hardware, not about the Go scheduler's
# multiplexing.
realbench:
	$(GO) run ./cmd/packbench -backend real -seed 1 -real-gate 2.0

# real-race runs the cross-backend conformance grid and the transport
# layer's own suite under the race detector: the real backend's SPSC
# queues and watchdog are lock-free concurrent code, so every CI run
# must prove them race-clean, not just correct.
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

# fault-race runs the fault-injection, property-differential,
# shared-plan-cache and telemetry suites under the race detector. `make
# race` already covers them; this target exists to re-run just that
# surface quickly while iterating. (The Metrics pattern pulls in the
# sharded counter/histogram hammer and merge-determinism tests.)
fault-race:
	$(GO) test -race -run 'Fault|Property|PlanCache|Metrics' ./...

# metricscheck proves the telemetry layer end to end: the metrics
# package's own suite (golden Prometheus exposition, nil fast path,
# race hammer), a current-schema perf report from the real backend
# validated by jsoncheck, and a wall-clock Chrome trace of the real
# backend that parses as trace-event JSON.
metricscheck:
	$(GO) test ./internal/metrics/
	$(GO) run ./cmd/packbench -backend real -quick -seed 1 -json /tmp/packbench-real-perf.json >/dev/null
	$(GO) run ./internal/tools/jsoncheck /tmp/packbench-real-perf.json schema=packbench-perf/v7
	$(GO) run ./cmd/packtrace -backend real -shape 4096 -dist "CYCLIC(4) ONTO 8" -format chrome -o /tmp/packtrace-real.json
	$(GO) run ./internal/tools/jsoncheck /tmp/packtrace-real.json traceEvents

# reportcheck proves the scalable-observability layer end to end: the
# packreport golden dashboard (byte-determinism included), the trace
# sink suites (JSONL stream round-trip, aggregated rollup/Stats
# reconciliation, sampling charge-exactness), the flight recorder's
# dump-on-abort paths (structural deadlock and fault-budget
# exhaustion), and the CLIs on real inputs: packreport over every
# committed baseline, packtrace streaming a JSONL feed alongside a
# Chrome export, and packtrace -open digesting that export.
reportcheck:
	$(GO) test ./internal/report/
	$(GO) test ./internal/trace/ -run 'JSONL|Flight|Sampling|Agg|Sink'
	$(GO) test ./internal/bench/ -run 'FlightDump'
	$(GO) run ./cmd/packreport -o /tmp/packreport.html \
		BENCH_pr1.json BENCH_pr2.json BENCH_pr3.json BENCH_pr4.json \
		BENCH_pr5.json BENCH_pr6.json BENCH_pr8.json BENCH_pr10.json
	grep -q "Scheme crossover model" /tmp/packreport.html
	grep -q "Serving traffic" /tmp/packreport.html
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

ci: vet staticcheck build race real-race smoke smoke-trace validate-perf perfgate planbench realbench metricscheck reportcheck servgate perfbench-selftest
