package bench

// This file is the realworld experiment family: the same PACK workload
// run twice per processor count — once on the emulator for the cost
// model's prediction, once on the real shared-memory backend
// (internal/transport) for a measured wall-clock time — so the model's
// predicted speedup curve can be read next to the machine's actual one.
//
// Unlike every canonical experiment, the real half is host-dependent
// and nondeterministic by nature (it measures the machine it runs on),
// so the family is hidden: it never joins "-exp all" or the perf
// baselines, and its table carries the host fingerprint instead of
// claiming reproducibility. Model times keep the usual determinism.

import (
	"fmt"
	"runtime"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/metrics"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// RealWorldPoint is one processor count of the measured-vs-modeled
// speedup curve. Serialized into the perf report since schema v6, so
// every field carries a JSON tag.
type RealWorldPoint struct {
	P int `json:"p"`
	// ModelMS is the emulator's virtual time per call (cost-model
	// prediction); ModelSpeedup is ModelMS(P=1)/ModelMS(P).
	ModelMS      float64 `json:"model_ms"`
	ModelSpeedup float64 `json:"model_speedup"`
	// RealMS is the measured wall time per call on the real backend
	// (minimum over samples, amortized over the in-run repeats);
	// RealSpeedup is RealMS(P=1)/RealMS(P).
	RealMS      float64 `json:"real_ms"`
	RealSpeedup float64 `json:"real_speedup"`
	// Derived holds wall-clock telemetry figures extracted from the
	// metrics registry attached to the real machine (schema v6):
	// queue_depth_p99 (p99 of sampled SPSC queue depths), park_rate
	// (receiver parks per completed receive), and plan_hit_rate when the
	// workload routed through a plan cache. Host measurements — never
	// comparable bit-for-bit across runs.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// RealWorldResult is the full curve plus the measurement conditions.
type RealWorldResult struct {
	// N is the global array length; W the block size; Density the mask
	// density.
	N       int     `json:"n"`
	W       int     `json:"w"`
	Density float64 `json:"density"`
	// Reps is how many PACK calls each measured run amortizes over;
	// Samples how many runs the minimum wall time is taken from.
	Reps    int `json:"reps"`
	Samples int `json:"samples"`
	// HostCPUs is runtime.NumCPU() at measurement time — the context
	// every wall figure must be read in.
	HostCPUs int              `json:"host_cpus"`
	Points   []RealWorldPoint `json:"points"`
}

// Gate checks the measured curve against a minimum speedup at one
// processor count (the make realbench contract).
func (r RealWorldResult) Gate(p int, minSpeedup float64) error {
	for _, pt := range r.Points {
		if pt.P != p {
			continue
		}
		if pt.RealSpeedup < minSpeedup {
			return fmt.Errorf("bench: real backend speedup at P=%d is %.2fx, want >= %.2fx (host has %d CPUs)",
				p, pt.RealSpeedup, minSpeedup, r.HostCPUs)
		}
		return nil
	}
	return fmt.Errorf("bench: no realworld point at P=%d", p)
}

// realWorldShape picks the workload size: large enough that per-call
// work dominates goroutine spawn/join overhead, small enough that the
// family stays interactive.
func (s Suite) realWorldShape() (n, w, reps, samples int) {
	if s.Quick {
		return 1 << 14, 16, 2, 2
	}
	return 1 << 17, 16, 3, 3
}

// MeasureRealWorld runs the PACK workload at each processor count on
// both backends and returns the two speedup curves.
func (s Suite) MeasureRealWorld() (RealWorldResult, error) {
	n, w, reps, samples := s.realWorldShape()
	const density = 0.5
	res := RealWorldResult{N: n, W: w, Density: density, Reps: reps, Samples: samples, HostCPUs: runtime.NumCPU()}
	gen := mask.NewRandom(density, s.Seed, n)

	for _, p := range []int{1, 2, 4, 8} {
		layout, err := dist.NewLayout(dist.Dim{N: n, P: p, W: w})
		if err != nil {
			return res, err
		}
		pt := RealWorldPoint{P: p}

		// Model half: one emulated call (deterministic; repeats would
		// scale the virtual time linearly).
		simMachine, err := sim.New(sim.Config{Procs: p, Params: sim.CM5Params()})
		if err != nil {
			return res, err
		}
		if err := runRealWorldBody(transport.WrapSim(simMachine), layout, gen, 1); err != nil {
			return res, err
		}
		pt.ModelMS = simMachine.MaxClock() / 1000

		// Real half: measured wall time, minimum over samples to shed
		// scheduler noise, amortized over reps calls per run. Each point
		// gets a fresh telemetry registry so its derived figures describe
		// exactly this processor count's traffic (instrumentation never
		// perturbs results — the conformance tests pin that).
		reg := metrics.NewRegistry()
		if s.OnRealRegistry != nil {
			s.OnRealRegistry(reg)
		}
		realMachine, err := transport.NewReal(transport.RealConfig{Procs: p, Params: sim.CM5Params(), Metrics: reg})
		if err != nil {
			return res, err
		}
		best := time.Duration(0)
		for k := 0; k < samples; k++ {
			if err := runRealWorldBody(realMachine, layout, gen, reps); err != nil {
				return res, err
			}
			if e := realMachine.Elapsed(); best == 0 || e < best {
				best = e
			}
		}
		pt.RealMS = float64(best) / float64(time.Millisecond) / float64(reps)
		pt.Derived = DeriveTelemetry(reg.Snapshot())

		res.Points = append(res.Points, pt)
	}
	base := res.Points[0]
	for i := range res.Points {
		res.Points[i].ModelSpeedup = base.ModelMS / res.Points[i].ModelMS
		res.Points[i].RealSpeedup = base.RealMS / res.Points[i].RealMS
	}
	return res, nil
}

// runRealWorldBody executes reps CMS PACK calls on machine m.
func runRealWorldBody(m transport.Machine, layout *dist.Layout, gen mask.Gen, reps int) error {
	var firstErr firstError
	err := m.Run(func(e transport.Endpoint) {
		lm := mask.FillLocal(layout, e.Rank(), gen)
		a := fillLocalData(nil, e.Rank(), layout.LocalSize())
		for it := 0; it < reps; it++ {
			if _, err := pack.Pack(e, layout, a, lm, pack.Options{Scheme: pack.SchemeCMS}); err != nil {
				firstErr.set(err)
				panic(err)
			}
		}
	})
	if ferr := firstErr.get(); ferr != nil {
		return ferr
	}
	return err
}

// RealWorld renders the measured-vs-modeled speedup table (experiment
// id "realworld"; hidden from "-exp all" because the real half measures
// the host).
func (s Suite) RealWorld() []*Table {
	if s.prefetchOnly {
		// Nothing to prefetch: wall measurements cannot be cached (a
		// cached wall time would be a stale measurement, not a replay).
		return nil
	}
	res, err := s.MeasureRealWorld()
	if err != nil {
		t := &Table{ID: "realworld", Title: "Measured vs modeled PACK speedup (failed)"}
		t.Notes = append(t.Notes, fmt.Sprintf("measurement error: %v", err))
		return []*Table{t}
	}
	return []*Table{res.Table()}
}

// Table renders the result for the packbench output.
func (r RealWorldResult) Table() *Table {
	t := &Table{
		ID: "realworld",
		Title: fmt.Sprintf("Measured vs modeled PACK speedup (CMS, N=%d, W=%d, density %.2f, %d reps/run, min of %d samples)",
			r.N, r.W, r.Density, r.Reps, r.Samples),
		Columns: []string{"P", "model ms", "model speedup", "real ms", "real speedup", "qdepth p99", "park rate"},
		Notes: []string{
			fmt.Sprintf("real times are host wall clock on %d CPUs — NOT reproducible figures; model times are virtual (CM-5 constants)", r.HostCPUs),
			"the gap between the curves is the model-vs-hardware divergence: the emulator assumes P dedicated processors, the host multiplexes onto its cores",
			"qdepth p99 / park rate come from the telemetry registry attached to the real machine: p99 of sampled SPSC queue depths, receiver parks per completed receive",
		},
	}
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprint(pt.P),
			fmt.Sprintf("%.3f", pt.ModelMS), fmt.Sprintf("%.2fx", pt.ModelSpeedup),
			fmt.Sprintf("%.3f", pt.RealMS), fmt.Sprintf("%.2fx", pt.RealSpeedup),
			fmt.Sprintf("%.0f", pt.Derived["queue_depth_p99"]), fmt.Sprintf("%.3f", pt.Derived["park_rate"]))
	}
	return t
}
