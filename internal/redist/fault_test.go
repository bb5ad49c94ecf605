package redist

import (
	"reflect"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

var redistFaultSchedules = []*sim.FaultConfig{
	{Seed: 61, Drop: 0.12, Dup: 0.12, Reorder: 0.15, Delay: 0.1, Stall: 0.02},
	{Seed: 62, Drop: 0.3},
}

// TestRedistributeUnderFaults: a cyclic-to-block redistribution moves
// every element to its new owner exactly once even when the network
// drops, duplicates and reorders.
func TestRedistributeUnderFaults(t *testing.T) {
	src := dist.MustLayout(dist.Dim{N: 24, P: 4, W: 1})
	dst := BlockLayout(src)
	global := make([]int, 24)
	for i := range global {
		global[i] = 13*i + 2
	}
	locals := dist.Scatter(src, global)

	for _, f := range redistFaultSchedules {
		out := make([][]int, src.Procs())
		m := sim.MustNew(sim.Config{Procs: src.Procs(), Params: sim.CM5Params(), Faults: f})
		if err := m.Run(func(p *sim.Proc) {
			b, err := Redistribute(p, src, dst, locals[p.Rank()])
			if err != nil {
				panic(err)
			}
			out[p.Rank()] = b
		}); err != nil {
			t.Fatalf("faults %v: %v", f, err)
		}
		if got := dist.Gather(dst, out); !reflect.DeepEqual(got, global) {
			t.Errorf("faults %v: redistribution corrupted data", f)
		}
	}
}

// TestPackRedistUnderFaults: both preliminary-redistribution pipelines
// (Red.1 selected-only, Red.2 whole-array) match the sequential
// reference under injected faults.
func TestPackRedistUnderFaults(t *testing.T) {
	src := dist.MustLayout(dist.Dim{N: 32, P: 4, W: 2})
	global := make([]int, 32)
	gmask := make([]bool, 32)
	for i := range global {
		global[i] = 5*i + 1
		gmask[i] = i%4 != 3
	}
	want := seq.Pack(global, gmask)
	locals := dist.Scatter(src, global)
	maskLocals := dist.Scatter(src, gmask)

	pipelines := []struct {
		name string
		run  func(p *sim.Proc) (*pack.Result[int], error)
	}{
		{"selected", func(p *sim.Proc) (*pack.Result[int], error) {
			return PackRedistSelected(p, src, locals[p.Rank()], maskLocals[p.Rank()], pack.Options{})
		}},
		{"whole", func(p *sim.Proc) (*pack.Result[int], error) {
			return PackRedistWhole(p, src, locals[p.Rank()], maskLocals[p.Rank()], pack.Options{})
		}},
	}
	for _, pl := range pipelines {
		for _, f := range redistFaultSchedules {
			results := make([]*pack.Result[int], src.Procs())
			m := sim.MustNew(sim.Config{Procs: src.Procs(), Params: sim.CM5Params(), Faults: f})
			if err := m.Run(func(p *sim.Proc) {
				res, err := pl.run(p)
				if err != nil {
					panic(err)
				}
				results[p.Rank()] = res
			}); err != nil {
				t.Fatalf("%s faults %v: %v", pl.name, f, err)
			}
			got := make([]int, len(want))
			for rank, res := range results {
				if res.Ranking.Size != len(want) {
					t.Fatalf("%s: rank %d counted %d, want %d", pl.name, rank, res.Ranking.Size, len(want))
				}
				for i, v := range res.V {
					got[res.Vec.ToGlobal(rank, i)] = v
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s faults %v: packed vector diverges from reference", pl.name, f)
			}
		}
	}
}
