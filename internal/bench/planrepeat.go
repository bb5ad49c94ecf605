package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// This file is the repeat-traffic experiment of the PackPlan
// compilation layer: the same mask applied many times per machine —
// the halo-exchange / stream-compaction workload the plan cache
// targets. The virtual table (planrepeat) reports amortized per-call
// cost and cache hit rate inside the cost model; MeasureWarmCold times
// warm against cold round trips on the real backend for make
// planbench's measured row.

// planRepeatCalls is how many times each measured machine repeats the
// operation (quick and full mode). One compile per rank then
// calls-1 cache hits: hit rate (calls-1)/calls.
func (s Suite) planRepeatCalls() int {
	if s.Quick {
		return 120
	}
	return 200
}

// planRepeatArray returns the experiment's array configuration.
func (s Suite) planRepeatArray() (n, p int, ws []int) {
	if s.Quick {
		return 4096, 16, []int{16, 256}
	}
	return 65536, 16, []int{64, 4096}
}

// PlanRepeat regenerates the repeat-traffic comparison: amortized
// virtual time per call, unplanned versus planned, for every scheme of
// both operations.
func (s Suite) PlanRepeat() []*Table { return s.parallelize(Suite.planRepeat) }

func (s Suite) planRepeat() []*Table {
	n, p, ws := s.planRepeatArray()
	calls := s.planRepeatCalls()
	gen := mask.NewRandom(0.5, s.Seed+99, n)

	type opSpec struct {
		mode    Mode
		schemes []pack.Scheme
	}
	ops := []opSpec{
		{ModePack, []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS}},
		{ModeUnpack, []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS}},
	}

	t := &Table{
		ID:      "planrepeat",
		Title:   fmt.Sprintf("Repeat traffic (same mask x%d): amortized cost per call (ms), 1-D N=%d, P=%d, 50%% mask", calls, n, p),
		Columns: []string{"W", "op", "scheme", "unplanned/call", "planned/call", "speedup", "hit rate"},
		Notes: []string{
			"planned: Options.Plans cache — call 1 compiles (ranking + mask bitset), every repeat sends the cold CMS PACK / CSS UNPACK messages from a bitset walk after a two-word collective lookup",
			fmt.Sprintf("hit rate per machine is (calls-1)/calls = %d/%d per rank; make planbench gates it and times warm against cold round trips on the real backend", calls-1, calls),
			"expected shape: a repeat saves the ranking stage, so the speedup is largest against SSS and at small W, whose slice arrays are longer, and smallest against CMS",
		},
	}
	for _, w := range ws {
		layout := dist.MustLayout(dist.Dim{N: n, P: p, W: w})
		for _, op := range ops {
			for _, scheme := range op.schemes {
				base := Run{Layout: layout, Gen: gen, Opt: pack.Options{Scheme: scheme}, Mode: op.mode, Repeat: calls}
				un := s.measure(base)
				planned := base
				planned.Planned = true
				pl := s.measure(planned)
				speedup, hit := 0.0, 0.0
				if pl.TotalMS > 0 {
					speedup = un.TotalMS / pl.TotalMS
				}
				if v, ok := pl.Derived["plan_hit_rate"]; ok {
					hit = v
				}
				t.AddRow(fmt.Sprint(w), op.mode.String(), scheme.String(),
					ms(un.TotalMS/float64(calls)), ms(pl.TotalMS/float64(calls)),
					fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.4f", hit))
			}
		}
	}
	return []*Table{t}
}

// PlanHitRate is the plan-cache hit rate of the experiment's
// representative configuration (planned SSS PACK at the larger block
// size), read from its cost-model run; make planbench gates it at 0.99.
// After -exp planrepeat the run is a cache hit, and being read outside
// any experiment it books into no report row.
func (s Suite) PlanHitRate() float64 {
	n, p, ws := s.planRepeatArray()
	met := s.measure(Run{
		Layout:  dist.MustLayout(dist.Dim{N: n, P: p, W: ws[len(ws)-1]}),
		Gen:     mask.NewRandom(0.5, s.Seed+99, n),
		Opt:     pack.Options{Scheme: pack.SchemeSSS},
		Mode:    ModePack,
		Repeat:  s.planRepeatCalls(),
		Planned: true,
	})
	return met.PlanStats.HitRate()
}

// WarmColdPerf is planbench's measured row: plan-cache hits against
// cold calls on the real backend at the repo benchmark's pack-warm
// shape (1-D N=2^20, P=2, W=64; CMS PACK then CSS UNPACK of the same
// mask in one Machine.Run), one random mask per paper density. Each
// figure is the minimum host wall time of WarmColdTrips round trips,
// cold and warm alternating which runs first.
type WarmColdPerf struct {
	Densities []float64
	ColdMS    []float64
	WarmMS    []float64
}

// WarmColdTrips is how many round trips of each kind planbench's measured
// row times per density.
const WarmColdTrips = 21

// Sums returns the cold and warm round-trip times summed over the
// densities.
func (r WarmColdPerf) Sums() (cold, warm float64) {
	for i := range r.Densities {
		cold += r.ColdMS[i]
		warm += r.WarmMS[i]
	}
	return cold, warm
}

// Gate fails unless the warm round trips sum to no more than the cold
// ones: a plan-cache hit must never lose to the call it replaces.
func (r WarmColdPerf) Gate() error {
	if cold, warm := r.Sums(); warm > cold {
		return fmt.Errorf("warm round trips sum to %.2f ms, cold ones to %.2f ms: the plan cache loses", warm, cold)
	}
	return nil
}

// MeasureWarmCold measures planbench's row (see WarmColdPerf). Every
// density gets a fresh plan cache whose plan is compiled by one
// untimed call; the last cold and warm round trips must produce the
// same PACK and UNPACK results.
func (s Suite) MeasureWarmCold() (WarmColdPerf, error) {
	const n, procs, w = 1 << 20, 2, 64
	layout := dist.MustLayout(dist.Dim{N: n, P: procs, W: w})
	m, err := transport.NewReal(transport.RealConfig{Procs: procs, Params: sim.CM5Params()})
	if err != nil {
		return WarmColdPerf{}, err
	}
	a := make([][]int, procs)
	field := make([][]int, procs)
	for r := range a {
		a[r] = fillLocalData(nil, r, layout.LocalSize())
		field[r] = fillLocalData(nil, procs+r, layout.LocalSize())
	}
	out := WarmColdPerf{Densities: []float64{0.10, 0.30, 0.50, 0.70, 0.90}}
	for i, d := range out.Densities {
		gen := mask.NewRandom(d, s.Seed+uint64(i)+1, n)
		masks := make([][]bool, procs)
		for r := range masks {
			masks[r] = mask.FillLocal(layout, r, gen)
		}
		caches := [2]*pack.PlanCache{nil, pack.NewPlanCache()} // cold, warm
		var got [2][][]int                                     // each kind's last PACK and UNPACK results
		best := [2]float64{math.Inf(1), math.Inf(1)}
		trip := func(k int) error {
			got[k] = make([][]int, 2*procs)
			start := time.Now()
			err := m.Run(func(e transport.Endpoint) {
				r := e.Rank()
				pr, err := pack.Pack(e, layout, a[r], masks[r], pack.Options{Scheme: pack.SchemeCMS, Plans: caches[k]})
				if err != nil {
					panic(err)
				}
				ur, err := pack.Unpack(e, layout, pr.V, pr.Ranking.Size, masks[r], field[r], pack.Options{Scheme: pack.SchemeCSS, Plans: caches[k]})
				if err != nil {
					panic(err)
				}
				got[k][r], got[k][procs+r] = pr.V, ur.A
			})
			best[k] = min(best[k], time.Since(start).Seconds()*1000)
			return err
		}
		if err := trip(1); err != nil { // compile
			return out, err
		}
		best[1] = math.Inf(1)
		for t := 0; t < WarmColdTrips; t++ {
			for _, k := range [2][2]int{{0, 1}, {1, 0}}[t%2] {
				if err := trip(k); err != nil {
					return out, err
				}
			}
		}
		for j, want := range got[0] {
			if !slices.Equal(got[1][j], want) {
				return out, fmt.Errorf("bench: density %.2f: warm result %d differs from the cold one", d, j)
			}
		}
		out.ColdMS = append(out.ColdMS, best[0])
		out.WarmMS = append(out.WarmMS, best[1])
	}
	return out, nil
}
