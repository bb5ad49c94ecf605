package ranking

import (
	"reflect"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/sim"
)

// TestRankUnderFaults: the ranking stage — pure prefix/reduction
// arithmetic over the wire — returns identical base-rank arrays,
// counters and records under any fault schedule.
func TestRankUnderFaults(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 12, P: 2, W: 3}, dist.Dim{N: 8, P: 2, W: 2})
	gmask := make([]bool, l.GlobalSize())
	for i := range gmask {
		gmask[i] = i%5 != 2
	}
	maskLocals := dist.Scatter(l, gmask)

	run := func(faults *sim.FaultConfig) []*Result {
		t.Helper()
		out := make([]*Result, l.Procs())
		m := sim.MustNew(sim.Config{Procs: l.Procs(), Params: sim.CM5Params(), Faults: faults})
		if err := m.Run(func(p *sim.Proc) {
			res, err := Rank(p, l, maskLocals[p.Rank()], Options{KeepRecords: true})
			if err != nil {
				panic(err)
			}
			out[p.Rank()] = res
		}); err != nil {
			t.Fatalf("faults %v: %v", faults, err)
		}
		return out
	}

	baseline := run(nil)
	schedules := []*sim.FaultConfig{
		{Seed: 51, Drop: 0.15, Dup: 0.1, Reorder: 0.15, Delay: 0.1},
		{Seed: 52, Drop: 0.35},
	}
	for _, f := range schedules {
		if got := run(f); !reflect.DeepEqual(got, baseline) {
			t.Errorf("faults %v: ranking results diverge from fault-free run", f)
		}
	}
}
