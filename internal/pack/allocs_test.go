package pack

import (
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/sim"
)

// composeAllocs measures the heap allocations of one cold
// composeSegments call under scheme's charge policy, for rank 0 of a
// P=4 cyclic layout with an n-element global array. The ranking stage
// (a collective) runs once up front; compose itself is pure local work,
// so it can be measured after the machine run on a quiet heap.
func composeAllocs(t *testing.T, n int, scheme Scheme) float64 {
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
	sel := mask.Bits(m)
	cs := newColdScan(l, sel, Options{Scheme: scheme})
	counts := segmentCounts(rnk, vec)
	v := make([]int, vec.LocalLen(0))
	// Charging against a finished machine's rank-0 proc is harmless:
	// it only advances that proc's (no longer read) virtual clock.
	return testing.AllocsPerRun(20, func() {
		composeSegments(proc, rnk, vec, counts, sel, a, v, cs)
	})
}

// TestComposeHotPathAllocations is the allocation-regression guard for
// the exact-sized send lists: a cold compose must allocate a small
// constant number of buffers (the header arena, the batches, one data
// buffer per destination) regardless of how many elements are
// selected, under every scheme's charge policy. Per-element append
// growth would scale these numbers with n.
func TestComposeHotPathAllocations(t *testing.T) {
	const maxAllocs = 10.0
	for _, n := range []int{1024, 8192} {
		for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
			if got := composeAllocs(t, n, scheme); got > maxAllocs {
				t.Errorf("composeSegments(n=%d) under %v: %.0f allocs/run, want <= %.0f (segment/data buffers must be exact-sized)", n, scheme, got, maxAllocs)
			}
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
