package bench

import (
	"fmt"
	"runtime"
	"time"

	"packunpack/internal/sim"
	"packunpack/internal/stats"
)

// PerfSchema identifies the JSON layout of PerfReport, so trajectory
// tooling that diffs BENCH_*.json files across commits can detect
// incompatible changes instead of misreading fields.
//
// v2: per-experiment rows now measure only the serial warm-cache
// replay (so allocation and wall figures are invariant under
// -parallel), while each experiment's grid execution is reported as
// its own "<id>/prefetch" line; a top-level "sched" field records the
// emulator scheduling mode.
//
// v3: rows with machine runs carry a "derived" object of per-run mean
// registry metrics (metrics.go): idle_frac, imbalance, comm_frac,
// comm_share/<phase>, and — when the sweep was traced via -trace-dir —
// critpath_words/critpath_msgs/critpath_hops. The pre-existing fields
// are unchanged, so v2 consumers that ignore unknown keys still parse.
//
// v4: repeated-sample wall-clock measurement. The replay of each
// experiment can run N times (packbench -samples); rows then carry the
// raw per-sample walls ("wall_samples_ms") plus robust aggregates
// ("wall_stats": median/p10/p90/MAD/min/max), with "wall_ms" now the
// median so single-number consumers see the robust figure. A top-level
// "samples" count and an "env" environment fingerprint (go version,
// OS/arch, CPU count, GOMAXPROCS, sched, parallel) record what the
// wall figures were measured under. Additionally, "wall_ms" values are
// no longer truncated to microsecond resolution. Virtual metrics are
// untouched: "virtual_ms" and "derived" stay exactly reproducible and
// are compared bit-for-bit by cmd/packdiff. v1–v3 files still parse
// (absent fields read as zero); v3 consumers that ignore unknown keys
// still parse v4.
//
// v5: plan caching. The experiment set gains "planrepeat" (repeat
// traffic through the PackPlan compilation layer), whose rows' derived
// objects carry "plan_hit_rate"; a top-level "plan_repeat" object
// records the wall-clock amortization measurement (calls, per-call
// unplanned/planned wall ms, speedup, hit rate). Rows of unplanned
// experiments are untouched — their virtual metrics stay bit-for-bit
// comparable with v4 baselines — and cmd/packdiff warns-and-skips the
// new fields when the older file lacks them. v1–v4 files still parse;
// v4 consumers that ignore unknown keys still parse v5.
//
// v6: real-backend telemetry. A report produced with the real backend
// (packbench -real -json) carries a top-level "real_world" object — the
// measured-vs-modeled speedup curve, now serialized for the first time —
// whose points hold a "derived" map of wall-clock telemetry figures
// (queue_depth_p99, park_rate, and plan_hit_rate when plans were used)
// extracted from the internal/metrics registry attached to each real
// machine; the run is also summarized as one "realworld" experiment row.
// These figures are host measurements, never comparable bit-for-bit.
// Virtual metrics are untouched: every sim-backend row stays exactly
// reproducible and bit-for-bit comparable with v5 baselines, and
// cmd/packdiff warns-and-skips real_world and the new derived keys when
// only one side carries them. v1–v5 files still parse; v5 consumers that
// ignore unknown keys still parse v6.
//
// v7: the serving layer. A run that included the service soak
// (packbench -service N) carries a top-level "service" object — the
// loadgen harness's deterministic report: seeded Poisson arrivals over
// the class mix, the discrete-event model of the admission queue
// (workers, bounded FIFO, rejections), and the resulting virtual-time
// latency quantiles (p50/p99/p999), throughput, and SumUS checksum,
// plus each class's warm plan-cached virtual service time. Like all
// virtual metrics these are bit-for-bit reproducible from the seed and
// compared exactly by cmd/packdiff when both files carry them;
// packdiff warns-and-skips the object when only one side has it. Every
// pre-existing row is untouched — sim-backend rows stay bit-for-bit
// comparable with v6 baselines. v1–v6 files still parse; v6 consumers
// that ignore unknown keys still parse v7.
const PerfSchema = "packbench-perf/v7"

// Environment is the perf report's measurement-environment record: the
// host fingerprint plus the knobs of this run that move wall-clock
// numbers without touching virtual ones.
type Environment struct {
	sim.Fingerprint
	Scheduler string `json:"sched"`
	Parallel  int    `json:"parallel"`
	Samples   int    `json:"samples"`
}

// Scheduler is the emulator scheduling mode every report records. The
// cooperative scheduler is the only one; the field stays in the
// schema so reports remain comparable with the committed baselines.
const Scheduler = "coop"

// String renders the environment on one line for table headers, so a
// pasted table is self-describing.
func (e Environment) String() string {
	return fmt.Sprintf("%s; sched=%s parallel=%d samples=%d",
		e.Fingerprint, e.Scheduler, e.Parallel, e.Samples)
}

// Environment captures the suite's measurement environment.
func (s Suite) Environment() Environment {
	return Environment{
		Fingerprint: sim.HostFingerprint(),
		Scheduler:   Scheduler,
		Parallel:    s.workerCount(),
		Samples:     s.sampleCount(),
	}
}

// PerfReport is the host-performance baseline packbench -json writes:
// one entry per requested experiment plus a summed total. Virtual
// times (the paper's results) are invariant under host parallelism;
// the wall-clock and allocation figures are what the -parallel flag
// is expected to move.
type PerfReport struct {
	Schema      string           `json:"schema"`
	GoVersion   string           `json:"go_version"`
	NumCPU      int              `json:"num_cpu"`
	Parallel    int              `json:"parallel"`
	Scheduler   string           `json:"sched"`
	Quick       bool             `json:"quick"`
	Seed        uint64           `json:"seed"`
	Samples     int              `json:"samples,omitempty"`
	Env         *Environment     `json:"env,omitempty"`
	Experiments []ExperimentPerf `json:"experiments"`
	Total       ExperimentPerf   `json:"total"`
	// PlanRepeat is the plan-cache wall-clock amortization measurement
	// (schema v5), attached when the run included the planrepeat
	// experiment; nil otherwise and in older files.
	PlanRepeat *PlanRepeatPerf `json:"plan_repeat,omitempty"`
	// RealWorld is the measured-vs-modeled speedup curve with per-point
	// telemetry (schema v6), attached when the report was produced by a
	// real-backend run (packbench -real -json); nil otherwise and in
	// older files. Its wall figures are host measurements — cmd/packdiff
	// notes its presence but never diffs it numerically.
	RealWorld *RealWorldResult `json:"real_world,omitempty"`
	// Service is the serving-layer soak report (schema v7), attached
	// when the run included the packserve/loadgen service measurement
	// (packbench -service); nil otherwise and in older files. All its
	// figures are virtual-time and deterministic from the seed, so
	// cmd/packdiff compares them exactly when both sides carry them.
	Service *ServicePerf `json:"service,omitempty"`
}

// ServicePerf is the deterministic report of the serving-layer soak
// (schema v7): the loadgen discrete-event model of internal/serve's
// admission queue under seeded Poisson traffic. Mirrors
// loadgen.Result's deterministic half without importing it (bench
// stays below the service layer).
type ServicePerf struct {
	Seed          uint64             `json:"seed"`
	Requests      int                `json:"requests"`
	Admitted      int                `json:"admitted"`
	Overloaded    int                `json:"overloaded"`
	Workers       int                `json:"workers"`
	Queue         int                `json:"queue"`
	RatePerSec    float64            `json:"rate_per_sec"`
	DurationUS    uint64             `json:"duration_us"`
	ThroughputRPS float64            `json:"throughput_rps"`
	P50US         int64              `json:"p50_us"`
	P99US         int64              `json:"p99_us"`
	P999US        int64              `json:"p999_us"`
	SumUS         uint64             `json:"sum_us"`
	Classes       []ServiceClassPerf `json:"classes"`
}

// ServiceClassPerf is one workload class of the service soak: its mix
// weight, measured warm virtual service time, and arrival share.
type ServiceClassPerf struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	ServiceUS uint64 `json:"service_us"`
	Arrivals  int    `json:"arrivals"`
}

// WallStats holds the robust aggregates of a row's repeated wall-clock
// samples (schema v4). All figures are milliseconds except Samples.
type WallStats struct {
	Samples  int     `json:"samples"`
	MedianMS float64 `json:"median_ms"`
	P10MS    float64 `json:"p10_ms"`
	P90MS    float64 `json:"p90_ms"`
	MADMS    float64 `json:"mad_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// ExperimentPerf is the host-side cost of one generation phase: the
// "<id>/prefetch" line covers discovering and executing the
// experiment's measurement grid (all machine runs, all worker-pool
// parallelism, the bulk of the allocations); the "<id>" line covers
// the serial replay that renders the tables from the warm cache and is
// byte-for-byte the same work at any -parallel setting.
type ExperimentPerf struct {
	// ID is the phase id ("fig3/prefetch", "fig3", ...); "all" in Total.
	ID string `json:"id"`
	// Tables and Rows count the rendered output (replay lines only).
	Tables int `json:"tables"`
	Rows   int `json:"rows"`
	// WallMS is host wall-clock time: the median over the row's samples
	// (schema v4; with one sample it is that sample).
	WallMS float64 `json:"wall_ms"`
	// WallSamplesMS are the raw per-sample wall times in measurement
	// order; cmd/packdiff feeds them to the Mann–Whitney significance
	// test. Only the replay phase is re-sampled — prefetch rows carry a
	// single sample (re-running the prefetch would hit the warm cache
	// and measure nothing).
	WallSamplesMS []float64 `json:"wall_samples_ms,omitempty"`
	// WallStats are the robust aggregates over WallSamplesMS.
	WallStats *WallStats `json:"wall_stats,omitempty"`
	// Allocs / AllocBytes are the heap allocation count and volume
	// (runtime.MemStats.Mallocs/TotalAlloc deltas around this phase
	// only). Because machine executions are confined to the prefetch
	// phase, the per-experiment replay figures no longer absorb
	// concurrent prefetch workers' allocations and match a serial run.
	// With repeated samples these (and the counters below) come from
	// the first sample, so they stay comparable to single-sample runs.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// MachineRuns counts emulated machine executions; CacheHits counts
	// measurements answered from the memo cache instead.
	MachineRuns int64 `json:"machine_runs"`
	CacheHits   int64 `json:"cache_hits"`
	// VirtualMS sums the virtual total time over all machine runs — a
	// host-independent checksum: it must not change with -parallel.
	VirtualMS float64 `json:"virtual_ms"`
	// Derived holds per-run means of the registry metrics (metrics.go)
	// over this phase's machine runs. Omitted when the phase ran no
	// machines (replay lines answer everything from the cache). Schema
	// v3 addition.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// wallMS converts a duration to milliseconds at full resolution.
// (The previous float64(wall.Microseconds())/1000 truncated to whole
// microseconds, quantizing sub-microsecond replay times to zero.)
func wallMS(wall time.Duration) float64 {
	return float64(wall) / float64(time.Millisecond)
}

// sealSamples finalizes a row's repeated-sample fields: the raw
// samples, their robust aggregates, and the median as the row's
// headline WallMS.
func (p *ExperimentPerf) sealSamples(samples []float64) {
	sum := stats.Summarize(samples)
	p.WallSamplesMS = samples
	p.WallStats = &WallStats{
		Samples:  sum.N,
		MedianMS: sum.Median,
		P10MS:    sum.P10,
		P90MS:    sum.P90,
		MADMS:    sum.MAD,
		MinMS:    sum.Min,
		MaxMS:    sum.Max,
	}
	p.WallMS = sum.Median
}

// instrument measures the host-side cost of running fn.
func (s Suite) instrument(id string, fn func() []*Table) ([]*Table, ExperimentPerf) {
	before := s.PerfSnapshot()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	tables := fn()

	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	after := s.PerfSnapshot()

	perf := ExperimentPerf{
		ID:          id,
		Tables:      len(tables),
		WallMS:      wallMS(wall),
		Allocs:      msAfter.Mallocs - msBefore.Mallocs,
		AllocBytes:  msAfter.TotalAlloc - msBefore.TotalAlloc,
		MachineRuns: after.MachineRuns - before.MachineRuns,
		CacheHits:   after.CacheHits - before.CacheHits,
		VirtualMS:   after.VirtualMS - before.VirtualMS,
	}
	if perf.MachineRuns > 0 {
		perf.Derived = make(map[string]float64)
		for name, sum := range after.DerivedSum {
			delta := sum - before.DerivedSum[name]
			perf.Derived[name] = delta / float64(perf.MachineRuns)
		}
	}
	for _, t := range tables {
		perf.Rows += len(t.Rows)
	}
	return tables, perf
}

// RunInstrumented generates one experiment's tables while measuring
// the host-side cost of doing so, split into the engine's two phases.
// It returns the "<id>/prefetch" perf line (grid execution, including
// any worker-pool parallelism) followed by the "<id>" line (the serial
// warm-cache replay). Splitting the phases is what makes the
// per-experiment rows -parallel-invariant: previously the whole
// generation was measured at once, so prefetch workers' allocations
// bled into per-experiment figures and disagreed with a serial run.
//
// With Suite.Samples > 1 the replay phase runs that many times and the
// row reports the robust aggregates over the per-sample walls; the
// replay is deterministic warm-cache work, so repeating it measures
// host noise, not new virtual results (machine runs all happen in the
// prefetch phase, which is measured once). Tables, allocation figures,
// and counters come from the first sample.
func (s Suite) RunInstrumented(id string) ([]*Table, []ExperimentPerf, error) {
	if _, ok := s.Registry()[id]; !ok {
		return nil, nil, fmt.Errorf("bench: unknown experiment %q", id)
	}

	pre := s
	pre.prefetchOnly = true
	pre.labelExp = id
	_, prePerf := s.instrument(id+"/prefetch", pre.Registry()[id])
	prePerf.sealSamples([]float64{prePerf.WallMS})

	rep := s
	rep.replayOnly = true
	rep.labelExp = id
	var (
		tables  []*Table
		perf    ExperimentPerf
		samples = make([]float64, 0, s.sampleCount())
	)
	for k := 0; k < s.sampleCount(); k++ {
		t, p := s.instrument(id, rep.Registry()[id])
		if k == 0 {
			tables, perf = t, p
		}
		samples = append(samples, p.WallMS)
	}
	perf.sealSamples(samples)

	return tables, []ExperimentPerf{prePerf, perf}, nil
}

// SumPerf folds per-phase figures into the report's total line.
// Derived metrics are per-run means, so the total carries their
// run-weighted mean rather than a plain sum. The total's WallMS sums
// the rows' medians; it carries no sample fields of its own (the rows
// are the unit of statistical comparison).
func SumPerf(perfs []ExperimentPerf) ExperimentPerf {
	total := ExperimentPerf{ID: "all"}
	derivedSum := make(map[string]float64)
	for _, p := range perfs {
		total.Tables += p.Tables
		total.Rows += p.Rows
		total.WallMS += p.WallMS
		total.Allocs += p.Allocs
		total.AllocBytes += p.AllocBytes
		total.MachineRuns += p.MachineRuns
		total.CacheHits += p.CacheHits
		total.VirtualMS += p.VirtualMS
		for name, mean := range p.Derived {
			derivedSum[name] += mean * float64(p.MachineRuns)
		}
	}
	if len(derivedSum) > 0 && total.MachineRuns > 0 {
		total.Derived = make(map[string]float64, len(derivedSum))
		for name, sum := range derivedSum {
			total.Derived[name] = sum / float64(total.MachineRuns)
		}
	}
	return total
}
