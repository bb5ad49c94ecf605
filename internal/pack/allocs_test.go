package pack

import (
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/sim"
)

// composeAllocs measures the heap allocations of one compose call for
// rank 0 of a P=4 cyclic layout with an n-element global array. The
// ranking stage (a collective) runs once up front; the compose
// functions themselves are pure local work, so they can be measured
// after the machine run on a quiet heap.
func composeAllocs(t *testing.T, n int, compose func(p *sim.Proc, cs *coldScan, a, v []int, rnk *ranking.Result, vec dist.VectorDist)) float64 {
	t.Helper()
	l := dist.MustLayout(dist.Dim{N: n, P: 4, W: 8})
	machine := sim.MustNew(sim.Config{Procs: 4})
	var rnk *ranking.Result
	var m []bool
	var proc *sim.Proc
	err := machine.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), mask.NewRandom(0.5, 7, n))
		r, err := ranking.Rank(p, l, lm, ranking.Options{})
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			rnk = r
			m = lm
			proc = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int, l.LocalSize())
	for i := range a {
		a[i] = i
	}
	vec, err := dist.NewVectorDist(rnk.Size, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Charging against a finished machine's rank-0 proc is harmless:
	// it only advances that proc's (no longer read) virtual clock.
	cs := &coldScan{w0: l.Dims[0].W, sel: mask.Bits(m)}
	v := make([]int, vec.LocalLen(0))
	return testing.AllocsPerRun(20, func() {
		compose(proc, cs, a, v, rnk, vec)
	})
}

// TestComposeHotPathAllocations is the allocation-regression guard for
// the exact-sized send lists: the compose functions must allocate a
// small constant number of buffers (the counts, the header and pair
// arenas, one data buffer per destination) regardless of how many
// elements are selected. Per-element append growth would scale these
// numbers with n.
func TestComposeHotPathAllocations(t *testing.T) {
	const maxAllocs = 10.0
	for _, n := range []int{1024, 8192} {
		css := composeAllocs(t, n, func(p *sim.Proc, cs *coldScan, a, _ []int, rnk *ranking.Result, vec dist.VectorDist) {
			send := make([][]pair[int], 4)
			composePairsCSS(p, cs, a, rnk, vec, send)
		})
		if css > maxAllocs {
			t.Errorf("composePairsCSS(n=%d): %.0f allocs/run, want <= %.0f (send lists must be exact-sized)", n, css, maxAllocs)
		}
		cms := composeAllocs(t, n, func(p *sim.Proc, cs *coldScan, a, v []int, rnk *ranking.Result, vec dist.VectorDist) {
			composeSegments(p, rnk, vec, segmentCounts(rnk, vec), cs.sel, a, v, cs)
		})
		if cms > maxAllocs {
			t.Errorf("composeSegments(n=%d): %.0f allocs/run, want <= %.0f (segment/data buffers must be exact-sized)", n, cms, maxAllocs)
		}
	}
}

// TestPlanComposeAllocations extends the guard to the compiled-plan
// path: executing a plan walks its bitset into exact-sized segment and
// data buffers, so the per-call allocation count must stay a small
// constant regardless of n — the warm-call cost the plan cache
// amortizes toward.
func TestPlanComposeAllocations(t *testing.T) {
	const maxAllocs = 10.0
	for _, n := range []int{1024, 8192} {
		l := dist.MustLayout(dist.Dim{N: n, P: 4, W: 8})
		machine := sim.MustNew(sim.Config{Procs: 4})
		var pl *Plan
		var proc *sim.Proc
		err := machine.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), mask.NewRandom(0.5, 7, n))
			cp, err := CompilePlan(p, l, lm, Options{})
			if err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				pl = cp
				proc = p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		a := make([]int, l.LocalSize())
		for i := range a {
			a[i] = i
		}
		v := make([]int, pl.vec.LocalLen(0))
		got := testing.AllocsPerRun(20, func() {
			composeSegments(proc, pl.rnk, pl.vec, pl.counts, pl.sel, a, v, nil)
		})
		if got > maxAllocs {
			t.Errorf("planned composeSegments(n=%d): %.0f allocs/run, want <= %.0f (segment and data buffers must be exact-sized)", n, got, maxAllocs)
		}
	}
}
