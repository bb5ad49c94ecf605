package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"packunpack/internal/trace"
)

// This file is the host-parallel sweep engine. Experiment points are
// independent — masks are pure functions of (seed, global index) and
// every Run executes on its own sim.Machine with its own virtual
// clocks — so the engine fans them out across a bounded worker pool.
//
// Determinism invariant (DESIGN.md §7): host parallelism must never
// change a single rendered byte. The engine guarantees that by
// construction: a generator is first dry-run in "collect" mode to
// discover its measurement grid (tables discarded), the grid is
// executed concurrently into the shared cache, and then the generator
// is replayed serially against the warm cache, producing exactly the
// rows a fully serial run would.

// runCache memoizes Metrics by configuration key. It is safe for
// concurrent use: the sweep engine fills it from several workers at
// once.
type runCache struct {
	mu   sync.Mutex
	m    map[string]Metrics
	hits atomic.Int64
}

func newRunCache() *runCache { return &runCache{m: make(map[string]Metrics)} }

// get returns the cached metrics for key, counting a hit on success.
func (c *runCache) get(key string) (Metrics, bool) {
	c.mu.Lock()
	m, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return m, ok
}

// peek is get without hit accounting (used by the prefetcher to skip
// already-measured points).
func (c *runCache) peek(key string) bool {
	c.mu.Lock()
	_, ok := c.m[key]
	c.mu.Unlock()
	return ok
}

func (c *runCache) put(key string, m Metrics) {
	c.mu.Lock()
	c.m[key] = m
	c.mu.Unlock()
}

func (c *runCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// runKey identifies a measurement configuration for memoization.
func runKey(r Run) string {
	return fmt.Sprintf("%s|%s|%v|%v|%v|%d|%v|%v|%v|%v|%v|%v|%s|%d|%v",
		r.Layout.String(), r.Gen.Name(), r.Opt.Scheme, r.Mode, r.Opt.PRS,
		r.Opt.VectorW, r.Opt.WholeSliceScan, r.Opt.A2A, r.Opt.SeparatePrefixReduce,
		r.SelfSendFree, r.Params, r.Trace, r.Faults.String(),
		r.Repeat, r.Planned)
}

// runCollector accumulates the distinct experiment points a generator
// would measure, during the dry (collect) pass of the engine.
type runCollector struct {
	seen map[string]bool
	keys []string
	runs []Run
}

func (c *runCollector) add(key string, r Run) {
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.keys = append(c.keys, key)
	c.runs = append(c.runs, r)
}

// perfCounters aggregates host-side instrumentation of the suite's
// work for the -json perf report.
type perfCounters struct {
	mu        sync.Mutex
	runs      int64
	virtualMS float64
	// derived sums each registry metric (metrics.go) over the recorded
	// runs; the report divides by the run count for per-experiment
	// means.
	derived map[string]float64
}

func (c *perfCounters) record(m Metrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.runs++
	c.virtualMS += m.TotalMS
	if len(m.Derived) > 0 {
		if c.derived == nil {
			c.derived = make(map[string]float64, len(m.Derived))
		}
		for name, v := range m.Derived {
			c.derived[name] += v
		}
	}
	c.mu.Unlock()
}

// PerfTotals is a point-in-time snapshot of the suite's cumulative
// instrumentation; deltas between snapshots give per-experiment
// figures.
type PerfTotals struct {
	// MachineRuns counts machine executions, VirtualMS the virtual time
	// they produced (summed TotalMS — the cross-machine checksum).
	MachineRuns int64
	VirtualMS   float64
	CacheHits   int64
	// DerivedSum sums each derived metric over the runs (a copy; safe
	// to keep across later work).
	DerivedSum map[string]float64
}

// PerfSnapshot captures the suite's cumulative instrumentation: machine
// executions, the virtual time they produced, cache hits, and the
// summed derived metrics.
func (s Suite) PerfSnapshot() PerfTotals {
	var t PerfTotals
	if s.counters != nil {
		s.counters.mu.Lock()
		t.MachineRuns = s.counters.runs
		t.VirtualMS = s.counters.virtualMS
		if len(s.counters.derived) > 0 {
			t.DerivedSum = make(map[string]float64, len(s.counters.derived))
			for name, v := range s.counters.derived {
				t.DerivedSum[name] = v
			}
		}
		s.counters.mu.Unlock()
	}
	if s.cache != nil {
		t.CacheHits = s.cache.hits.Load()
	}
	return t
}

// workerCount resolves the Workers field: 0 means one worker per CPU.
func (s Suite) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}

// forEach runs fn(i) for every i in [0, n) across the suite's worker
// pool and blocks until all complete. With one worker (or n <= 1) it
// degenerates to a plain serial loop. A panic in a worker is re-raised
// in the caller after the pool drains, mirroring measure's serial
// panic-on-harness-bug behaviour.
func (s Suite) forEach(n int, fn func(int)) {
	w := s.workerCount()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// prefetch executes every not-yet-cached collected point across the
// worker pool, filling the shared cache. No output is produced here;
// the caller replays its generator against the warm cache afterwards.
func (s Suite) prefetch(col *runCollector) {
	var todo []int
	for i, key := range col.keys {
		if !s.cache.peek(key) {
			todo = append(todo, i)
		}
	}
	s.forEach(len(todo), func(j int) {
		i := todo[j]
		s.cache.put(col.keys[i], s.execute(col.runs[i]))
	})
}

// stageLabels returns the pprof label set for one engine stage, so a
// -cpuprofile attributes samples to the experiment and phase that
// spent them. The stage is "collect" (grid discovery dry pass),
// "prefetch" (grid execution across the worker pool), or "replay"
// (serial table rendering against the warm cache).
func (s Suite) stageLabels(stage string) pprof.LabelSet {
	if s.labelExp == "" {
		return pprof.Labels("stage", stage)
	}
	return pprof.Labels("experiment", s.labelExp, "stage", stage)
}

// withStage runs fn under the stage's pprof labels and hands fn the
// labelled context. Callers store that context in their Suite copy
// (labelCtx) so execute can layer the per-point labels on top of the
// stage labels — pprof.Do builds the goroutine's label map from the
// context it is given, so labelling from context.Background() would
// erase the stage labels instead of extending them. Labels are
// goroutine-scoped and inherited by goroutines spawned inside fn, so
// wrapping a stage here also labels its forEach worker pool.
func (s Suite) withStage(stage string, fn func(context.Context)) {
	pprof.Do(context.Background(), s.stageLabels(stage), fn)
}

// labelCtxOrBackground returns the suite's stage-labelled context.
func (s Suite) labelCtxOrBackground() context.Context {
	if s.labelCtx != nil {
		return s.labelCtx
	}
	return context.Background()
}

// runLabels identifies one experiment point in a CPU profile.
func runLabels(r Run) pprof.LabelSet {
	return pprof.Labels(
		"scheme", r.Opt.Scheme.String(),
		"op", r.Mode.String(),
		"procs", strconv.Itoa(r.Layout.Procs()),
	)
}

// execute runs one point and books it in the perf counters. The
// experiment grid is fixed, so an error is a programming error, not an
// input error — hence the panic. With a TraceDir configured, the point
// runs with the observability layer on and its Chrome trace is dumped
// there (tracedump.go); virtual results are identical either way.
// The machine execution carries per-point pprof labels (scheme, op,
// processor count) on top of the stage labels already on the
// goroutine.
func (s Suite) execute(r Run) (met Metrics) {
	pprof.Do(s.labelCtxOrBackground(), runLabels(r), func(context.Context) {
		met = s.executePoint(r)
	})
	return met
}

func (s Suite) executePoint(r Run) Metrics {
	// With a FlightDir configured, every measured machine carries the
	// always-on flight recorder; on an abort the bounded window is
	// dumped before the engine panic propagates (flightdump.go).
	if s.FlightDir != "" && r.Flight == nil {
		r.Flight = trace.MustNewFlightRecorder(r.Layout.Procs(), trace.DefaultFlightCap)
	}
	if s.TraceDir != "" {
		m, capture, err := r.ExecuteTrace()
		if err != nil {
			panic(fmt.Sprintf("bench: %v%s", err, s.dumpFlightOnAbort(runKey(r), r, err)))
		}
		s.counters.record(m)
		s.dumpTrace(runKey(r), capture)
		return m
	}
	m, err := r.Execute()
	if err != nil {
		panic(fmt.Sprintf("bench: %v%s", err, s.dumpFlightOnAbort(runKey(r), r, err)))
	}
	s.counters.record(m)
	return m
}

// parallelize is the engine's entry point: it dry-runs gen in collect
// mode to discover the measurement grid, prefetches the grid across
// the worker pool, and then replays gen serially against the warm
// cache. gen is a method expression (e.g. Suite.fig3) so the dry pass
// can run on a copy of the suite with collect mode switched on.
//
// The prefetch pass runs when there is host parallelism to exploit —
// or whenever the instrumented runner splits the phases (prefetchOnly
// / replayOnly), which it does at every worker count so that the
// per-experiment rows of the perf report measure exactly the same
// warm-cache replay regardless of -parallel (report.go). With a single
// worker there is no parallelism to feed, so the prefetch phase skips
// the dry pass (whose grid can over-collect on data-dependent
// generators) and simply runs the generator serially, discarding the
// tables: measure fills the shared cache with exactly the points the
// replay will read.
func (s Suite) parallelize(gen func(Suite) []*Table) []*Table {
	serialPrefetch := s.prefetchOnly && s.workerCount() <= 1
	if s.cache != nil && s.collect == nil && !s.replayOnly && !serialPrefetch &&
		(s.workerCount() > 1 || s.prefetchOnly) {
		dry := s
		dry.collect = &runCollector{seen: make(map[string]bool)}
		s.withStage("collect", func(ctx context.Context) {
			dry.labelCtx = ctx
			gen(dry) // tables discarded; may over-collect (see beta)
		})
		s.withStage("prefetch", func(ctx context.Context) {
			ps := s
			ps.labelCtx = ctx
			ps.prefetch(dry.collect)
		})
	}
	if s.prefetchOnly {
		if serialPrefetch {
			run := s
			run.prefetchOnly = false
			s.withStage("prefetch", func(ctx context.Context) {
				run.labelCtx = ctx
				gen(run)
			})
		}
		return nil
	}
	var tables []*Table
	s.withStage("replay", func(ctx context.Context) {
		rs := s
		rs.labelCtx = ctx
		tables = gen(rs)
	})
	return tables
}
