package bench

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// Suite bundles the paper's experiments. Quick mode shrinks the
// parameter sets so the whole suite runs in seconds (used by tests);
// the default sizes are the paper's full grids (six 1-D arrays, four
// 2-D arrays, six masks).
type Suite struct {
	Quick bool
	// Seed for the random masks (the paper regenerated five random
	// masks per configuration; one seed per density is enough for the
	// shape comparisons).
	Seed uint64
	// Workers bounds the host worker pool the sweep engine fans
	// experiment points out to: 0 means runtime.NumCPU(), 1 reproduces
	// the fully serial behaviour. Whatever the value, rendered tables
	// and report rows are identical (the determinism invariant of
	// DESIGN.md §7).
	Workers int
	// Faults, when non-nil, installs this fault-injection plan on every
	// measured machine that does not carry its own (packbench -faults).
	// The canonical experiments stay fault-free unless the caller asks;
	// the "faults" sweep sets per-run plans regardless.
	Faults *sim.FaultConfig
	// TraceDir, when non-empty, runs every measured machine with the
	// observability layer on and dumps one Chrome trace-event file per
	// executed experiment point into the directory (packbench
	// -trace-dir). Tables and virtual times are unaffected.
	TraceDir string
	// FlightDir, when non-empty, attaches an always-on flight recorder
	// to every measured PACK/UNPACK machine of the sweep (packbench
	// -flight-dir) and, if a machine aborts on a structural deadlock or
	// an exhausted fault-retry budget, dumps the recorder's bounded
	// event window into the directory (Chrome trace + text post-mortem,
	// flightdump.go) before the engine panic propagates. Tables and
	// virtual times are unaffected.
	FlightDir string
	// cache memoizes measurements across experiments: Figure 3 and
	// Figure 4 report different columns of the same runs, and the
	// Table I crossover search revisits the SSS baseline repeatedly.
	// It is also the hand-off point of the parallel sweep engine.
	cache *runCache
	// collect, when non-nil, switches measure into the grid-discovery
	// mode of the parallel sweep engine (see parallel.go).
	collect *runCollector
	// row, when non-nil, is the report row of the experiment being
	// generated (RunInstrumented); the engine books points into it.
	row *ExperimentPerf
	// labelExp is the experiment id the instrumented runner stamps on
	// the engine's pprof labels (parallel.go), so -cpuprofile samples
	// attribute to the experiment that spent them. Empty outside
	// RunInstrumented.
	labelExp string
	// labelCtx carries the current stage's pprof labels down to
	// execute, which layers the per-point labels (scheme, op, procs)
	// on top (see withStage).
	labelCtx context.Context
}

// NewSuite builds a suite with a shared measurement cache.
func NewSuite(quick bool, seed uint64) Suite {
	return Suite{Quick: quick, Seed: seed, cache: newRunCache()}
}

// maskSpec names a mask generator for a given array shape.
type maskSpec struct {
	name string
	gen  mask.Gen
}

// maskSpecs returns the paper's six masks for a shape: densities
// 10..90% plus the deterministic LT mask.
func (s Suite) maskSpecs(shape []int) []maskSpec {
	densities := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	if s.Quick {
		densities = []float64{0.10, 0.50, 0.90}
	}
	var specs []maskSpec
	for i, d := range densities {
		specs = append(specs, maskSpec{
			name: fmt.Sprintf("%.0f%%", d*100),
			gen:  mask.NewRandom(d, s.Seed+uint64(i)+1, shape...),
		})
	}
	switch len(shape) {
	case 1:
		specs = append(specs, maskSpec{name: "LT", gen: mask.FirstHalf{N: shape[0]}})
	case 2:
		specs = append(specs, maskSpec{name: "LT", gen: mask.UpperTriangle{}})
	}
	return specs
}

// oneD builds the paper's 1-D layout: N elements over P=16 processors
// (unless overridden) with block size w.
func oneD(n, p, w int) *dist.Layout {
	return dist.MustLayout(dist.Dim{N: n, P: p, W: w})
}

// twoD builds the paper's 2-D layout: n x n elements over a pg x pg
// grid, with the same block size along both dimensions ("the block
// size for dimension 0 was fixed to be the same as that for dimension
// 1").
func twoD(n, pg, w int) *dist.Layout {
	return dist.MustLayout(dist.Dim{N: n, P: pg, W: w}, dist.Dim{N: n, P: pg, W: w})
}

// blockSizes returns the power-of-two block sizes from 1 (cyclic) to
// localSize (block), the sweep of the paper's figures.
func blockSizes(localSize int, quick bool) []int {
	var out []int
	for w := 1; w <= localSize; w *= 2 {
		out = append(out, w)
	}
	if quick && len(out) > 4 {
		// Keep cyclic, two middles and block.
		out = []int{out[0], out[len(out)/3], out[2*len(out)/3], out[len(out)-1]}
	}
	return out
}

// arraySpec is one input-array configuration of the paper.
type arraySpec struct {
	name   string
	build  func(w int) *dist.Layout
	localW int // local extent along dimension 0 (the W sweep range)
	shape  []int
}

// packArrays returns the array configurations used by Figures 3-5:
// 1-D arrays on 16 processors and 2-D arrays on a 4x4 grid.
func (s Suite) packArrays() []arraySpec {
	if s.Quick {
		return []arraySpec{
			{name: "1-D N=4096, P=16", build: func(w int) *dist.Layout { return oneD(4096, 16, w) }, localW: 4096 / 16, shape: []int{4096}},
			{name: "2-D 64x64, P=4x4", build: func(w int) *dist.Layout { return twoD(64, 4, w) }, localW: 64 / 4, shape: []int{64, 64}},
		}
	}
	var specs []arraySpec
	for _, n := range []int{4096, 8192, 16384, 32768, 65536, 131072} {
		n := n
		specs = append(specs, arraySpec{
			name:   fmt.Sprintf("1-D N=%d, P=16", n),
			build:  func(w int) *dist.Layout { return oneD(n, 16, w) },
			localW: n / 16,
			shape:  []int{n},
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		specs = append(specs, arraySpec{
			name:   fmt.Sprintf("2-D %dx%d, P=4x4", n, n),
			build:  func(w int) *dist.Layout { return twoD(n, 4, w) },
			localW: n / 4,
			shape:  []int{n, n},
		})
	}
	return specs
}

// measure reads one PACK/UNPACK configuration through the sweep
// engine (Suite.point); a harness bug panics in execute (the experiment
// grid is fixed, so an error is a programming error, not an input
// error).
func (s Suite) measure(r Run) Metrics {
	if r.Faults == nil {
		r.Faults = s.Faults
	}
	return s.point(runKey(r), func(s Suite) Metrics { return s.execute(r) })
}

// packSchemes are the three PACK schemes in the paper's order.
var packSchemes = []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS}

// Fig3 regenerates Figure 3: local computation time (ms) of the three
// PACK schemes as a function of the block size, per array size and
// mask density.
func (s Suite) Fig3() []*Table { return s.parallelize(Suite.fig3) }

func (s Suite) fig3() []*Table {
	var tables []*Table
	for _, arr := range s.packArrays() {
		for _, msk := range s.maskSpecs(arr.shape) {
			t := &Table{
				ID:      "fig3",
				Title:   fmt.Sprintf("PACK local computation (ms), %s, mask %s", arr.name, msk.name),
				Columns: []string{"W", "SSS", "CSS", "CMS"},
				Notes: []string{
					"local computation excludes the prefix-reduction-sum (paper, Section 7)",
					"expected shape: grows as W shrinks; SSS best at W=1; CSS/CMS best at block",
				},
			}
			for _, w := range blockSizes(arr.localW, s.Quick) {
				row := []string{fmt.Sprint(w)}
				for _, scheme := range packSchemes {
					met := s.measure(Run{Layout: arr.build(w), Gen: msk.gen, Opt: pack.Options{Scheme: scheme}, Mode: ModePack})
					row = append(row, ms(met.LocalMS))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// Fig4 regenerates Figure 4: total PACK execution time (ms) of the
// three schemes, with the stage breakdown of the best scheme.
func (s Suite) Fig4() []*Table { return s.parallelize(Suite.fig4) }

func (s Suite) fig4() []*Table {
	var tables []*Table
	for _, arr := range s.packArrays() {
		for _, msk := range s.maskSpecs(arr.shape) {
			t := &Table{
				ID:      "fig4",
				Title:   fmt.Sprintf("PACK total time (ms), %s, mask %s", arr.name, msk.name),
				Columns: []string{"W", "SSS", "CSS", "CMS", "CMS-prs", "CMS-m2m"},
				Notes: []string{
					"expected shape: CMS best overall except cyclic (W=1) where SSS wins",
				},
			}
			for _, w := range blockSizes(arr.localW, s.Quick) {
				row := []string{fmt.Sprint(w)}
				var cms Metrics
				for _, scheme := range packSchemes {
					met := s.measure(Run{Layout: arr.build(w), Gen: msk.gen, Opt: pack.Options{Scheme: scheme}, Mode: ModePack})
					row = append(row, ms(met.TotalMS))
					if scheme == pack.SchemeCMS {
						cms = met
					}
				}
				row = append(row, ms(cms.PRSMS), ms(cms.M2MMS))
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// Fig5 regenerates Figure 5: total UNPACK execution time (ms) of the
// two UNPACK schemes (SSS and CSS).
func (s Suite) Fig5() []*Table { return s.parallelize(Suite.fig5) }

func (s Suite) fig5() []*Table {
	var tables []*Table
	for _, arr := range s.packArrays() {
		for _, msk := range s.maskSpecs(arr.shape) {
			t := &Table{
				ID:      "fig5",
				Title:   fmt.Sprintf("UNPACK total time (ms), %s, mask %s", arr.name, msk.name),
				Columns: []string{"W", "SSS", "CSS", "CSS-m2m"},
				Notes: []string{
					"UNPACK uses two-phase communication (requests + data); expect it to cost more than PACK",
				},
			}
			for _, w := range blockSizes(arr.localW, s.Quick) {
				row := []string{fmt.Sprint(w)}
				var css Metrics
				for _, scheme := range []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS} {
					met := s.measure(Run{Layout: arr.build(w), Gen: msk.gen, Opt: pack.Options{Scheme: scheme}, Mode: ModeUnpack})
					row = append(row, ms(met.TotalMS))
					if scheme == pack.SchemeCSS {
						css = met
					}
				}
				row = append(row, ms(css.M2MMS))
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// beta finds the smallest power-of-two block size at which challenger
// local computation is no worse than incumbent local computation, or 0
// if it never happens (the paper prints infinity). It measures the
// whole ascending sweep before taking the first winner, so the collect
// pass reads exactly the points the replay reads.
func (s Suite) beta(build func(w int) *dist.Layout, localW int, gen mask.Gen, challenger, incumbent pack.Scheme) int {
	first := 0
	for w := 1; w <= localW; w *= 2 {
		inc := s.measure(Run{Layout: build(w), Gen: gen, Opt: pack.Options{Scheme: incumbent}, Mode: ModePack})
		ch := s.measure(Run{Layout: build(w), Gen: gen, Opt: pack.Options{Scheme: challenger}, Mode: ModePack})
		if first == 0 && ch.LocalMS <= inc.LocalMS {
			first = w
		}
	}
	return first
}

// Table1 regenerates Table I: the beta_1 crossover block sizes (first
// block size at which the compact storage scheme beats the simple
// storage scheme on local computation) for 1-D and 2-D arrays across
// mask densities, plus the corresponding beta_2 values for the compact
// message scheme.
func (s Suite) Table1() []*Table { return s.parallelize(Suite.table1) }

func (s Suite) table1() []*Table {
	type sizeSpec struct {
		label  string
		build  func(w int) *dist.Layout
		localW int
		shape  []int
	}
	var oneDSizes, twoDSizes []sizeSpec
	oneDLocals := []int{1024, 2048, 4096, 8192}
	twoDLocals := []int{16, 32, 64, 128}
	if s.Quick {
		oneDLocals = []int{256}
		twoDLocals = []int{16}
	}
	for _, ls := range oneDLocals {
		n := ls * 16
		oneDSizes = append(oneDSizes, sizeSpec{
			label:  fmt.Sprint(ls),
			build:  func(w int) *dist.Layout { return oneD(n, 16, w) },
			localW: ls,
			shape:  []int{n},
		})
	}
	for _, ls := range twoDLocals {
		n := ls * 4
		twoDSizes = append(twoDSizes, sizeSpec{
			label:  fmt.Sprint(ls),
			build:  func(w int) *dist.Layout { return twoD(n, 4, w) },
			localW: ls,
			shape:  []int{n, n},
		})
	}

	makeTable := func(id, title string, sizes []sizeSpec, challenger pack.Scheme) *Table {
		t := &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"Local Size"},
			Notes: []string{
				"0 printed as 'inf': the challenger never catches up within the sweep",
				"expected shape: crossover shrinks as density grows; very large at 10%",
			},
		}
		var specNames []string
		for _, sz := range sizes {
			specs := s.maskSpecs(sz.shape)
			row := []string{sz.label}
			for _, msk := range specs {
				if len(specNames) < len(specs) {
					specNames = append(specNames, msk.name)
				}
				b := s.beta(sz.build, sz.localW, msk.gen, challenger, pack.SchemeSSS)
				if b == 0 {
					row = append(row, "inf")
				} else {
					row = append(row, fmt.Sprint(b))
				}
			}
			t.AddRow(row...)
		}
		t.Columns = append(t.Columns, specNames...)
		return t
	}

	return []*Table{
		makeTable("table1", "Table I: beta_1 (CSS beats SSS on local computation), 1-D arrays, P=16", oneDSizes, pack.SchemeCSS),
		makeTable("table1", "Table I: beta_1, 2-D arrays, P=4x4 (local size per dimension)", twoDSizes, pack.SchemeCSS),
		makeTable("table1", "Table I companion: beta_2 (CMS beats SSS on local computation), 1-D arrays, P=16", oneDSizes, pack.SchemeCMS),
		makeTable("table1", "Table I companion: beta_2, 2-D arrays, P=4x4", twoDSizes, pack.SchemeCMS),
	}
}

// Table2 regenerates Table II: total PACK time for a cyclically
// distributed input under the plain simple storage scheme versus the
// two preliminary redistribution pipelines.
func (s Suite) Table2() []*Table { return s.parallelize(Suite.table2) }

func (s Suite) table2() []*Table {
	type sizeSpec struct {
		label string
		l     *dist.Layout
		shape []int
	}
	sizes := []sizeSpec{
		{label: "1-D 16384", l: oneD(16384, 16, 1), shape: []int{16384}},
		{label: "1-D 65536", l: oneD(65536, 16, 1), shape: []int{65536}},
		{label: "2-D 256x256", l: twoD(256, 4, 1), shape: []int{256, 256}},
		{label: "2-D 512x512", l: twoD(512, 4, 1), shape: []int{512, 512}},
	}
	if s.Quick {
		sizes = []sizeSpec{
			{label: "1-D 4096", l: oneD(4096, 16, 1), shape: []int{4096}},
			{label: "2-D 64x64", l: twoD(64, 4, 1), shape: []int{64, 64}},
		}
	}
	var tables []*Table
	for _, sz := range sizes {
		t := &Table{
			ID:      "table2",
			Title:   fmt.Sprintf("Table II: cyclic input, %s — SSS vs redistribution pipelines (ms)", sz.label),
			Columns: []string{"Mask", "SSS", "Red.1", "Red.2"},
			Notes: []string{
				"Red.1 = redistribute selected data + CMS on block; Red.2 = redistribute whole arrays + CMS on block",
				"expected shape (paper): 1-D — neither Red beats SSS; 2-D — Red.1 wins at low density, Red.2 at high; Red.2 nearly density-insensitive",
			},
		}
		for _, msk := range s.maskSpecs(sz.shape) {
			if msk.name == "LT" {
				continue // Table II lists the five random densities only
			}
			sss := s.measure(Run{Layout: sz.l, Gen: msk.gen, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack})
			r1 := s.measure(Run{Layout: sz.l, Gen: msk.gen, Mode: ModeRed1})
			r2 := s.measure(Run{Layout: sz.l, Gen: msk.gen, Mode: ModeRed2})
			t.AddRow(msk.name, ms(sss.TotalMS), ms(r1.TotalMS), ms(r2.TotalMS))
		}
		tables = append(tables, t)
	}
	return tables
}

// Scale regenerates the Section 7 scaling experiment: the same local
// array size on 16 and on 256 processors (global size grown 16x),
// showing communication taking over from local computation.
func (s Suite) Scale() []*Table { return s.parallelize(Suite.scale) }

func (s Suite) scale() []*Table {
	type cfg struct {
		label string
		build func(w int) *dist.Layout
		lw    int
		shape []int
	}
	var cfgs []cfg
	if s.Quick {
		cfgs = []cfg{
			{label: "1-D N=16384, P=16", build: func(w int) *dist.Layout { return oneD(16384, 16, w) }, lw: 1024, shape: []int{16384}},
			{label: "1-D N=262144, P=256", build: func(w int) *dist.Layout { return oneD(262144, 256, w) }, lw: 1024, shape: []int{262144}},
		}
	} else {
		cfgs = []cfg{
			{label: "1-D N=65536, P=16", build: func(w int) *dist.Layout { return oneD(65536, 16, w) }, lw: 4096, shape: []int{65536}},
			{label: "1-D N=1048576, P=256", build: func(w int) *dist.Layout { return oneD(1048576, 256, w) }, lw: 4096, shape: []int{1048576}},
			{label: "2-D 512x512, P=4x4", build: func(w int) *dist.Layout { return twoD(512, 4, w) }, lw: 128, shape: []int{512, 512}},
			{label: "2-D 2048x2048, P=16x16", build: func(w int) *dist.Layout { return twoD(2048, 16, w) }, lw: 128, shape: []int{2048, 2048}},
		}
	}
	var tables []*Table
	for _, c := range cfgs {
		t := &Table{
			ID:      "scale",
			Title:   fmt.Sprintf("Scaling: %s, CMS PACK breakdown (ms), mask 50%%", c.label),
			Columns: []string{"W", "total", "local", "prs", "m2m"},
			Notes: []string{
				"fixed local size across the two machine sizes; expected shape: on 256 processors communication dominates",
			},
		}
		gen := mask.NewRandom(0.5, s.Seed+42, c.shape...)
		ws := []int{1, 8, c.lw}
		for _, w := range ws {
			met := s.measure(Run{Layout: c.build(w), Gen: gen, Opt: pack.Options{Scheme: pack.SchemeCMS}, Mode: ModePack})
			t.AddRow(fmt.Sprint(w), ms(met.TotalMS), ms(met.LocalMS), ms(met.PRSMS), ms(met.M2MMS))
		}
		tables = append(tables, t)
	}
	return tables
}

// prsPoint is one (P, M, algorithm) configuration of the PRS grid.
type prsPoint struct {
	p, m int
	algo comm.PRSAlgorithm
}

// prsKey identifies a PRS point in the suite's shared memo cache (the
// "prs|" prefix keeps it disjoint from the PACK/UNPACK run keys).
func prsKey(pt prsPoint) string {
	return fmt.Sprintf("prs|%d|%d|%v", pt.p, pt.m, pt.algo)
}

// prsExecute runs one bare PRS collective — with the TraceDir dump, so
// a traced sweep covers the PRS grid too. Like execute, the point
// carries pprof labels identifying it in a -cpuprofile.
func (s Suite) prsExecute(pt prsPoint) (met Metrics) {
	labels := pprof.Labels("op", "prs", "algo", fmt.Sprint(pt.algo),
		"procs", strconv.Itoa(pt.p), "veclen", strconv.Itoa(pt.m))
	pprof.Do(s.labelCtxOrBackground(), labels, func(context.Context) {
		met = s.prsExecutePoint(pt)
	})
	return met
}

func (s Suite) prsExecutePoint(pt prsPoint) Metrics {
	cfg := sim.Config{Procs: pt.p, Params: sim.CM5Params()}
	var retain *trace.RetainSink
	if s.TraceDir != "" {
		retain = trace.NewRetainSink(pt.p)
		cfg.Sink = retain
	}
	machine := sim.MustNew(cfg)
	err := machine.Run(func(proc *sim.Proc) {
		vec := make([]int, pt.m)
		for i := range vec {
			vec[i] = proc.Rank() + i
		}
		comm.World(proc).PrefixReductionSum(vec, pt.algo)
	})
	if err != nil {
		panic(err)
	}
	m := metricsFrom(machine)
	if retain != nil {
		s.dumpTrace(prsKey(pt), trace.NewCapture(machine, retain))
	}
	return m
}

// PRS regenerates the prefix-reduction-sum comparison the paper refers
// to (Section 7 and reference [6]): direct vs split vs the auto rule,
// across processor counts and vector lengths. The points are bare
// collectives, not PACK/UNPACK runs, but they go through the same
// engine under their own keys.
func (s Suite) PRS() []*Table { return s.parallelize(Suite.prs) }

func (s Suite) prs() []*Table {
	procs := []int{4, 16, 64, 256}
	vecs := []int{16, 256, 4096, 65536}
	if s.Quick {
		procs = []int{4, 16}
		vecs = []int{16, 1024}
	}
	t := &Table{
		ID:      "prs",
		Title:   "Vector prefix-reduction-sum time (ms) by algorithm",
		Columns: []string{"P", "M", "direct", "split", "auto"},
		Notes: []string{
			"expected shape: direct wins for small M or small P; split wins as both grow (its bandwidth term is P-independent)",
		},
	}
	for _, p := range procs {
		for _, m := range vecs {
			row := []string{fmt.Sprint(p), fmt.Sprint(m)}
			for _, algo := range []comm.PRSAlgorithm{comm.PRSDirect, comm.PRSSplit, comm.PRSAuto} {
				pt := prsPoint{p: p, m: m, algo: algo}
				met := s.point(prsKey(pt), func(s Suite) Metrics { return s.prsExecute(pt) })
				row = append(row, ms(met.TotalMS))
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}
}

// Registry maps experiment ids to their generator functions.
func (s Suite) Registry() map[string]func() []*Table {
	return map[string]func() []*Table{
		"fig3":       s.Fig3,
		"fig4":       s.Fig4,
		"fig5":       s.Fig5,
		"table1":     s.Table1,
		"table2":     s.Table2,
		"scale":      s.Scale,
		"prs":        s.PRS,
		"ablate":     s.Ablations,
		"model":      s.Model,
		"faults":     s.FaultSweep,
		"planrepeat": s.PlanRepeat,
	}
}

// hiddenExperiments are registered but excluded from ExperimentIDs (and
// hence from "-exp all" and the perf-regression baseline): they are not
// paper artifacts, and keeping them out preserves the bit-for-bit
// stability of the canonical BENCH reports. They run by explicit id
// (packbench -exp faults).
var hiddenExperiments = map[string]bool{"faults": true}

// ExperimentIDs returns the canonical registry keys in sorted order.
// Each report row books only the points its own replay reads first, so
// where a new experiment sorts moves no other row.
func (s Suite) ExperimentIDs() []string {
	var ids []string
	for id := range s.Registry() {
		if !hiddenExperiments[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// All runs every experiment in registry order.
func (s Suite) All() []*Table {
	var tables []*Table
	for _, id := range s.ExperimentIDs() {
		tables = append(tables, s.Registry()[id]()...)
	}
	return tables
}
