// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 7): workload
// definitions, parameter sweeps, scheme comparisons, and text rendering
// of the measured rows/series.
//
// All times are virtual machine times from the sim cost model, reported
// in milliseconds like the paper. The DESIGN.md experiment index maps
// each experiment id here to the paper artifact it reproduces.
package bench

import (
	"fmt"
	"sync"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/ranking"
	"packunpack/internal/redist"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// Mode selects the operation a Run measures.
type Mode int

const (
	// ModePack measures plain parallel PACK.
	ModePack Mode = iota
	// ModeUnpack measures parallel UNPACK (N' = Size).
	ModeUnpack
	// ModeRed1 measures the Red.1 pipeline: redistribution of the
	// selected data to block layout, then CMS PACK.
	ModeRed1
	// ModeRed2 measures the Red.2 pipeline: redistribution of the
	// whole arrays, then CMS PACK.
	ModeRed2
	// ModeUnpackRedist measures UNPACK via whole-array redistribution
	// (the Section 6.3 idea the paper deems infeasible for UNPACK).
	ModeUnpackRedist
)

func (m Mode) String() string {
	switch m {
	case ModePack:
		return "pack"
	case ModeUnpack:
		return "unpack"
	case ModeRed1:
		return "red1"
	case ModeRed2:
		return "red2"
	case ModeUnpackRedist:
		return "unpack-redist"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Metrics is the virtual-time breakdown of one measured operation, in
// milliseconds, taken as the per-component maximum over processors
// (the paper reports the slowest processor per stage).
type Metrics struct {
	// TotalMS is the end-to-end time (maximum final clock).
	TotalMS float64
	// LocalMS is the local computation time as the paper defines it:
	// all local work excluding the prefix-reduction-sum (ranking scans
	// and arithmetic, send-list construction, message composition and
	// decomposition).
	LocalMS float64
	// PRSMS is the time spent in the vector prefix-reduction-sum
	// (computation + communication).
	PRSMS float64
	// M2MMS is the many-to-many personalized communication time of
	// the redistribution stage.
	M2MMS float64
	// RedistMS is the preliminary array redistribution communication
	// time (Red.1/Red.2 pipelines only).
	RedistMS float64
	// Size is the number of selected elements.
	Size int
	// Words is the total number of machine words sent by all
	// processors.
	Words int64
	// Msgs is the total number of messages sent.
	Msgs int64
	// FaultStats aggregates the machine's fault-injection and recovery
	// counters over all processors; nil when the run had no fault plan
	// (so fault-free reports keep their exact shape).
	FaultStats *sim.FaultCounters `json:"FaultStats,omitempty"`
	// PlanStats snapshots the run's plan-cache counters; nil unless the
	// run was Planned (so unplanned reports keep their exact shape).
	PlanStats *pack.PlanCacheStats `json:"PlanStats,omitempty"`
	// Derived holds the registry metrics (metrics.go) computed for this
	// run: load imbalance, idle fraction, per-phase comm shares, and —
	// for traced runs — critical-path figures. Treated as read-only
	// once computed (Metrics values are memoized and shared).
	Derived map[string]float64
}

// metricsFrom extracts Metrics from the most recent machine run.
func metricsFrom(m *sim.Machine) Metrics {
	var out Metrics
	stats := m.Stats()
	out.TotalMS = m.MaxClock() / 1000
	for _, s := range stats {
		prs := s.Phases[ranking.PhasePRS]
		if local := (s.Comp - prs.Comp) / 1000; local > out.LocalMS {
			out.LocalMS = local
		}
		if v := (prs.Comp + prs.Comm) / 1000; v > out.PRSMS {
			out.PRSMS = v
		}
		m2m := s.Phases[pack.PhaseM2M]
		if v := (m2m.Comp + m2m.Comm) / 1000; v > out.M2MMS {
			out.M2MMS = v
		}
		rd := s.Phases[redist.PhaseRedist]
		if v := (rd.Comp + rd.Comm) / 1000; v > out.RedistMS {
			out.RedistMS = v
		}
		out.Words += s.WordsSent
		out.Msgs += s.MsgsSent
	}
	if rep := m.FaultReport(); rep != nil {
		total := rep.Total
		out.FaultStats = &total
	}
	out.Derived = ComputeDerived(Snapshot{Stats: stats})
	return out
}

// Run describes one measured operation instance.
type Run struct {
	Layout *dist.Layout
	Gen    mask.Gen
	Opt    pack.Options
	Mode   Mode
	// Params are the machine constants; zero value means CM5Params.
	Params sim.Params
	// SelfSendFree shortcuts self messages to zero cost (ablation of
	// the paper's policy of routing them through the network).
	SelfSendFree bool
	// Faults installs a deterministic fault-injection plan on the
	// measured machine (sim.Config.Faults); the operation then runs
	// over the reliable transport and Metrics.FaultStats reports the
	// injection activity. Nil measures the exact fault-free machine.
	Faults *sim.FaultConfig
	// Trace retains the run's event stream (a trace.RetainSink on the
	// machine's Sink): ExecuteTrace then returns the capture, and the
	// critical-path metrics join Metrics.Derived. Tracing never changes
	// virtual times; it only records them.
	Trace bool
	// Verify additionally checks the result against the sequential
	// oracle (slower; used by the harness tests).
	Verify bool
	// Repeat executes the operation this many times inside the one
	// measured machine (0 or 1 means once) — the repeat-traffic shape of
	// the planrepeat experiment. Reported times cover all calls;
	// amortized per-call figures divide by Repeat.
	Repeat int
	// Planned installs a fresh plan cache (pack.Options.Plans) for the
	// run, so the first call compiles and every repeat executes the
	// cached plan; Metrics.PlanStats then reports the cache
	// counters and Derived gains plan_hit_rate.
	Planned bool
	// Flight attaches an always-on flight recorder to the measured
	// machine's Sink (packbench -flight-dir). Deliberately NOT part of
	// the memoization key (runKey): the recorder observes the event
	// feed and never perturbs virtual results. The sweep engine dumps its
	// window when a machine aborts (parallel.go).
	Flight *trace.FlightRecorder
	// Sink attaches a streaming event sink to the measured machine
	// (sim.Config.Sink) — e.g. trace.NewAggSink for the bounded-memory
	// P >= 1024 observability sweep (scale1k.go). Like Flight, NOT
	// part of the memoization key, and unlike Trace it
	// retains no events: memory stays O(P) however long the run.
	// Trace, Flight and Sink share the machine's one Sink through a
	// trace.Tee.
	Sink sim.EventSink
	// failRank is a test seam: when set, it is consulted after the
	// operation and its non-nil error is reported as that rank's
	// failure (exercises the any-rank first-error capture).
	failRank func(rank int) error
}

// firstError captures the first error reported by any rank of an SPMD
// run, race-safely: ranks fail concurrently, and before this existed
// only rank 0's error surfaced cleanly (other ranks' errors were only
// visible as recovered panics).
type firstError struct {
	once sync.Once
	err  error
}

func (f *firstError) set(err error) {
	if err != nil {
		f.once.Do(func() { f.err = err })
	}
}

// get must only be called after the run has completed (Machine.Run's
// internal WaitGroup orders the ranks' set calls before it).
func (f *firstError) get() error { return f.err }

// fillLocalData deterministically fills a processor's local data array;
// the values encode (rank, offset) so misrouted elements are
// detectable. buf is reused when large enough (nil allocates fresh).
func fillLocalData(buf []int, rank, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	a := buf[:n]
	for i := range a {
		a[i] = rank*(1<<24) + i
	}
	return a
}

// Execute runs the operation on a fresh machine and returns its
// metrics.
func (r Run) Execute() (Metrics, error) {
	met, _, err := r.exec()
	return met, err
}

// ExecuteTrace is Execute with the observability layer on: it returns
// the run's trace capture alongside the metrics, and Metrics.Derived
// additionally carries the critical-path figures.
func (r Run) ExecuteTrace() (Metrics, *trace.Capture, error) {
	r.Trace = true
	return r.exec()
}

func (r Run) exec() (Metrics, *trace.Capture, error) {
	params := r.Params
	if params == (sim.Params{}) {
		params = sim.CM5Params()
	}
	sinks := []sim.EventSink{r.Sink}
	var retain *trace.RetainSink
	if r.Trace {
		retain = trace.NewRetainSink(r.Layout.Procs())
		sinks = append(sinks, retain)
	}
	if r.Flight != nil {
		sinks = append(sinks, r.Flight)
	}
	machine, err := sim.New(sim.Config{
		Procs: r.Layout.Procs(), Params: params, SelfSendFree: r.SelfSendFree,
		Faults: r.Faults, Sink: trace.NewTee(sinks...),
	})
	if err != nil {
		return Metrics{}, nil, err
	}

	// UNPACK needs the vector length up front; the mask generators are
	// deterministic, so the harness (not the timed machine) counts.
	size := 0
	if r.Mode == ModeUnpack || r.Mode == ModeUnpackRedist {
		shape := make([]int, r.Layout.Rank())
		for i, d := range r.Layout.Dims {
			shape[i] = d.N
		}
		size = mask.Count(r.Gen, shape...)
	}

	// Planned runs share one fresh cache across the machine's ranks and
	// repeats: the first call per rank compiles, every repeat hits.
	opt := r.Opt
	var plans *pack.PlanCache
	if r.Planned {
		plans = pack.NewPlanCache()
		opt.Plans = plans
	}
	reps := r.Repeat
	if reps < 1 {
		reps = 1
	}

	var firstErr firstError
	results := make([]*pack.Result[int], r.Layout.Procs())
	unpacked := make([]*pack.UnpackResult[int], r.Layout.Procs())
	runErr := machine.Run(func(p *sim.Proc) {
		// The local mask/data/vector fills are the per-run allocation
		// hot spot of a sweep; they are recycled through a sync.Pool
		// (pool.go) once this rank's operation has consumed them — no
		// result below retains a reference to them.
		bufs := localBufPool.Get().(*localBufs)
		defer localBufPool.Put(bufs)
		lm := bufs.maskBuf(r.Layout, p.Rank(), r.Gen)
		a := fillLocalData(bufs.data, p.Rank(), r.Layout.LocalSize())
		bufs.data = a
		for it := 0; it < reps; it++ {
			var err error
			switch r.Mode {
			case ModePack:
				results[p.Rank()], err = pack.Pack(p, r.Layout, a, lm, opt)
			case ModeUnpack:
				vec, verr := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
				if verr != nil {
					err = verr
					break
				}
				v := fillLocalData(bufs.vec, p.Rank()+1000, vec.LocalLen(p.Rank()))
				bufs.vec = v
				unpacked[p.Rank()], err = pack.Unpack(p, r.Layout, v, size, lm, a, opt)
			case ModeRed1:
				results[p.Rank()], err = redist.PackRedistSelected(p, r.Layout, a, lm, opt)
			case ModeRed2:
				results[p.Rank()], err = redist.PackRedistWhole(p, r.Layout, a, lm, opt)
			case ModeUnpackRedist:
				vec, verr := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
				if verr != nil {
					err = verr
					break
				}
				v := fillLocalData(bufs.vec, p.Rank()+1000, vec.LocalLen(p.Rank()))
				bufs.vec = v
				unpacked[p.Rank()], err = redist.UnpackRedistWhole(p, r.Layout, v, size, lm, a, opt)
			default:
				err = fmt.Errorf("bench: unknown mode %v", r.Mode)
			}
			if err == nil && r.failRank != nil {
				err = r.failRank(p.Rank())
			}
			if err != nil {
				firstErr.set(err)
				panic(err)
			}
		}
	})
	if err := firstErr.get(); err != nil {
		return Metrics{}, nil, err
	}
	if runErr != nil {
		return Metrics{}, nil, runErr
	}

	met := metricsFrom(machine)
	if plans != nil {
		// Re-derive with the cache counters in view; plan_hit_rate joins
		// the map while every shared figure stays bit-identical, so
		// unplanned runs keep their exact derived maps.
		st := plans.Stats()
		met.PlanStats = &st
		met.Derived = ComputeDerived(Snapshot{Stats: machine.Stats(), Plan: met.PlanStats})
	}
	var capture *trace.Capture
	if r.Trace {
		capture = trace.NewCapture(machine, retain)
		crit, err := trace.CriticalPath(capture)
		if err != nil {
			return met, capture, fmt.Errorf("bench: critical-path analysis: %w", err)
		}
		// Re-derive with the critical path in view; the traced map is a
		// superset of the untraced one, so memoized figures agree either
		// way on the shared names.
		met.Derived = ComputeDerived(Snapshot{Stats: capture.Stats, Crit: crit, Plan: met.PlanStats})
	}
	if r.Mode == ModeUnpack || r.Mode == ModeUnpackRedist {
		met.Size = size
	} else {
		met.Size = results[0].Ranking.Size
	}
	if r.Verify {
		if err := r.verify(results, unpacked, size); err != nil {
			return met, capture, err
		}
	}
	return met, capture, nil
}

// verify checks the distributed result against the sequential oracle.
func (r Run) verify(results []*pack.Result[int], unpacked []*pack.UnpackResult[int], size int) error {
	gmask := mask.FillGlobal(r.Layout, r.Gen)
	locals := make([][]int, r.Layout.Procs())
	for rank := range locals {
		locals[rank] = fillLocalData(nil, rank, r.Layout.LocalSize())
	}
	global := dist.Gather(r.Layout, locals)

	if r.Mode == ModeUnpack || r.Mode == ModeUnpackRedist {
		vGlobal := make([]int, size)
		vec, err := dist.NewVectorDist(size, r.Layout.Procs(), r.Opt.VectorW)
		if err != nil {
			return err
		}
		for rank := 0; rank < r.Layout.Procs(); rank++ {
			v := fillLocalData(nil, rank+1000, vec.LocalLen(rank))
			for i, val := range v {
				vGlobal[vec.ToGlobal(rank, i)] = val
			}
		}
		want := make([]int, len(global))
		ri := 0
		for i, sel := range gmask {
			if sel {
				want[i] = vGlobal[ri]
				ri++
			} else {
				want[i] = global[i]
			}
		}
		aLocals := make([][]int, len(unpacked))
		for rank, u := range unpacked {
			aLocals[rank] = u.A
		}
		got := dist.Gather(r.Layout, aLocals)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("bench: unpack verify failed at %d: got %d want %d", i, got[i], want[i])
			}
		}
		return nil
	}

	var want []int
	for i, sel := range gmask {
		if sel {
			want = append(want, global[i])
		}
	}
	var got []int
	for _, res := range results {
		got = append(got, res.V...)
	}
	if len(got) != len(want) {
		return fmt.Errorf("bench: pack verify failed: got %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bench: pack verify failed at %d: got %d want %d", i, got[i], want[i])
		}
	}
	return nil
}
