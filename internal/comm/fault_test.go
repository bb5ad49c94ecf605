package comm

import (
	"reflect"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// collectiveWorkload runs every collective in the package and folds all
// results into results[rank], so a faulted run can be compared
// value-for-value against a fault-free one.
func collectiveWorkload(results [][]int) func(g Group) {
	return func(g Group) {
		n := g.Size()
		me := g.Index()
		var out []int

		var v []int
		if me == n-1 {
			v = []int{7, me, 3}
		}
		v = g.Bcast(n-1, v)
		out = append(out, v...)
		g.Barrier()

		vec := make([]int, 9)
		for j := range vec {
			vec[j] = (me + 1) * (j + 2) % 13
		}
		for _, algo := range []PRSAlgorithm{PRSDirect, PRSSplit} {
			prefix, total := g.PrefixReductionSum(vec, algo)
			out = append(out, prefix...)
			out = append(out, total...)
		}

		for _, opt := range []A2AOptions{{}, {Naive: true}, {SkipEmpty: true}, {SkipEmpty: true, Naive: true}} {
			send := make([][]int, n)
			for i := range send {
				l := (me*7 + i*3) % 4 // mix of empty and non-empty messages
				buf := make([]int, l)
				for j := range buf {
					buf[j] = me*100 + i*10 + j
				}
				send[i] = buf
			}
			recv := AlltoallVW(g, send, elemWords(send), opt)
			for i := range recv {
				out = append(out, len(recv[i]))
				out = append(out, recv[i]...)
			}
		}

		gathered := GatherV(g, 0, []int{me, me * me}, 1)
		if me == 0 {
			for _, row := range gathered {
				out = append(out, row...)
			}
		}
		results[g.Proc().Rank()] = out
	}
}

// runFaultWorkload runs the collective workload on six ranks, with the
// event stream retained by a RetainSink, and returns the per-rank
// results, the machine and the retained events.
func runFaultWorkload(t *testing.T, faults *sim.FaultConfig) ([][]int, *sim.Machine, [][]sim.Event) {
	t.Helper()
	const n = 6
	results := make([][]int, n)
	rs := trace.NewRetainSink(n)
	m := sim.MustNew(sim.Config{Procs: n, Params: sim.CM5Params(), Sink: rs, Faults: faults})
	if err := m.Run(func(p *sim.Proc) { collectiveWorkload(results)(World(p)) }); err != nil {
		t.Fatalf("faults %v: %v", faults, err)
	}
	return results, m, rs.Events()
}

// TestCollectivesUnderFaults is the core reliable-delivery guarantee:
// every collective returns values identical to the fault-free run under
// any seeded fault schedule.
func TestCollectivesUnderFaults(t *testing.T) {
	baseline, _, _ := runFaultWorkload(t, nil)
	schedules := []*sim.FaultConfig{
		{Seed: 1, Drop: 0.02, Dup: 0.02, Reorder: 0.05, Delay: 0.05, Stall: 0.01},
		{Seed: 2, Drop: 0.25},
		{Seed: 3, Dup: 0.2, Reorder: 0.3},
		{Seed: 4, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Delay: 0.1, Stall: 0.05},
	}
	for _, f := range schedules {
		got, m, _ := runFaultWorkload(t, f)
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("faults %v: results diverge from fault-free run", f)
		}
		rep := m.FaultReport()
		if rep == nil || rep.Total.Injected() == 0 {
			t.Errorf("faults %v: nothing injected", f)
		}
		if rep.Total.Drops > 0 && rep.Total.Retries == 0 {
			t.Errorf("faults %v: drops but no retries recorded", f)
		}
		if rep.Total.Dups > 0 && rep.Total.Dedups == 0 && rep.Total.Residual == 0 {
			t.Errorf("faults %v: dups neither deduped nor residual", f)
		}
	}
}

// TestFaultScheduleDeterminism is the determinism satellite: the same
// seed replays an identical fault schedule on a fresh machine — same
// FaultReport, same Stats and same event streams, sequence numbers
// included — while different seeds hit different (non-empty)
// injection points.
func TestFaultScheduleDeterminism(t *testing.T) {
	f := &sim.FaultConfig{Seed: 9, Drop: 0.08, Dup: 0.08, Reorder: 0.1, Delay: 0.1, Stall: 0.03}
	_, first, firstEvents := runFaultWorkload(t, f)
	_, replay, replayEvents := runFaultWorkload(t, f)

	rep := first.FaultReport()
	if rep.Total.Injected() == 0 {
		t.Fatal("schedule injected nothing")
	}
	if !reflect.DeepEqual(replay.FaultReport(), rep) {
		t.Errorf("same seed did not replay the same fault report:\n%+v\nvs\n%+v", rep.Total, replay.FaultReport().Total)
	}
	if !reflect.DeepEqual(replay.Stats(), first.Stats()) {
		t.Error("same seed did not replay the same stats")
	}
	if !reflect.DeepEqual(replayEvents, firstEvents) {
		t.Error("same seed did not replay the same event streams")
	}

	other := &sim.FaultConfig{Seed: 10, Drop: 0.08, Dup: 0.08, Reorder: 0.1, Delay: 0.1, Stall: 0.03}
	_, diff, _ := runFaultWorkload(t, other)
	repO := diff.FaultReport()
	if repO.Total.Injected() == 0 {
		t.Error("seed 10 injected nothing")
	}
	if reflect.DeepEqual(repO.PerRank, rep.PerRank) {
		t.Error("different seeds produced identical injection points")
	}
}

// TestFaultBudgetExhaustion: a schedule that drops everything exhausts
// the retry budget and surfaces as a structured FaultBudgetError, with
// the FaultReport still available for post-mortem.
func TestFaultBudgetExhaustion(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 4, Params: sim.CM5Params(),
		Faults: &sim.FaultConfig{Seed: 1, Drop: 1, MaxRetries: 3}})
	err := m.Run(func(p *sim.Proc) {
		g := World(p)
		g.Bcast(0, []int{1, 2, 3})
	})
	if !sim.IsFaultBudget(err) {
		t.Fatalf("want FaultBudgetError, got %v", err)
	}
	rep := m.FaultReport()
	if rep == nil || rep.Total.Drops == 0 || rep.Total.Retries == 0 {
		t.Errorf("report after exhaustion: %+v", rep)
	}
}

// TestReliableStreamHeaderCharge: with faults enabled every reliable
// message carries a one-word sequence header; with faults off the wire
// traffic is bit-identical to the raw path.
func TestReliableStreamHeaderCharge(t *testing.T) {
	run := func(f *sim.FaultConfig) []sim.Stats {
		m := sim.MustNew(sim.Config{Procs: 2, Params: sim.CM5Params(), Faults: f})
		if err := m.Run(func(p *sim.Proc) {
			g := World(p)
			if g.Index() == 0 {
				g.send(1, tagGather, []int{1, 2, 3}, 3)
			} else {
				g.recv(0, tagGather)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	off := run(nil)
	on := run(&sim.FaultConfig{Seed: 1}) // all rates zero: transport on, no injections
	if off[0].WordsSent != 3 {
		t.Fatalf("raw path sent %d words, want 3", off[0].WordsSent)
	}
	if on[0].WordsSent != 4 {
		t.Errorf("reliable path sent %d words, want 4 (payload + seq header)", on[0].WordsSent)
	}
	if on[0].MsgsSent != off[0].MsgsSent {
		t.Errorf("message count changed: %d vs %d", on[0].MsgsSent, off[0].MsgsSent)
	}
}
