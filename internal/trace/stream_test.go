package trace

import (
	"fmt"
	"math"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/hpf"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
)

// opCapture runs one PACK (or UNPACK) of a 192-element CYCLIC(4) array
// at half density on procs emulated processors, under the given fault
// plan (nil for none), and returns the retained capture.
func opCapture(t *testing.T, procs int, scheme pack.Scheme, unpack bool, faults *sim.FaultConfig) *Capture {
	t.Helper()
	const n = 192
	layout, err := hpf.ParseDist(fmt.Sprintf("CYCLIC(4) ONTO %d", procs), n)
	if err != nil {
		t.Fatal(err)
	}
	gen := mask.NewRandom(0.5, 3, n)
	size := mask.Count(gen, n)
	vec, err := dist.NewVectorDist(size, procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Procs: procs, Params: sim.CM5Params(), Faults: faults}
	return simCapture(t, cfg, func(p *sim.Proc) {
		lm := mask.FillLocal(layout, p.Rank(), gen)
		a := make([]int, layout.LocalSize())
		opt := pack.Options{Scheme: scheme}
		var err error
		if unpack {
			_, err = pack.Unpack(p, layout, make([]int, vec.LocalLen(p.Rank())), size, lm, a, opt)
		} else {
			_, err = pack.Pack(p, layout, a, lm, opt)
		}
		if err != nil {
			panic(err)
		}
	})
}

// TestSpansFromEventsTileStats is the derivation invariant on the
// emulator: for every rank, the spans derived from the event stream
// tile [0, Stats.Clock] with no gap or overlap, and their per-phase
// computation and communication sums equal Stats.Phases — for every
// scheme of PACK and UNPACK, with and without a fault plan that
// stalls, delays, drops, duplicates and reorders.
func TestSpansFromEventsTileStats(t *testing.T) {
	storm := &sim.FaultConfig{Seed: 5, Drop: 0.05, Dup: 0.05, Reorder: 0.05, Delay: 0.1, Stall: 0.05}
	ops := []struct {
		scheme pack.Scheme
		unpack bool
	}{
		{pack.SchemeSSS, false}, {pack.SchemeCSS, false}, {pack.SchemeCMS, false},
		{pack.SchemeSSS, true}, {pack.SchemeCSS, true},
	}
	injected := map[sim.EventKind]int{}
	for _, procs := range []int{3, 4, 8} {
		for _, op := range ops {
			for _, faults := range []*sim.FaultConfig{nil, storm} {
				name := fmt.Sprintf("p%d/%v/unpack=%v/faults=%v", procs, op.scheme, op.unpack, faults != nil)
				c := opCapture(t, procs, op.scheme, op.unpack, faults)
				for rank, st := range c.Stats {
					checkTiling(t, name, rank, c.Spans[rank], st)
				}
				for _, row := range c.Events {
					for _, e := range row {
						injected[e.Kind]++
					}
				}
			}
		}
	}
	for _, k := range []sim.EventKind{sim.EvFaultStall, sim.EvFaultDelay, sim.EvFaultDrop, sim.EvFaultDup, sim.EvFaultReorder, sim.EvRetry} {
		if injected[k] == 0 {
			t.Errorf("the fault plan never produced a %v event", k)
		}
	}
}

// checkTiling asserts that one rank's spans tile [0, st.Clock] and sum
// per phase to st.Phases within 1e-9 relative.
func checkTiling(t *testing.T, name string, rank int, spans []Span, st sim.Stats) {
	t.Helper()
	end := 0.0
	comp, comm := map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		if s.Start != end || s.End <= s.Start {
			t.Fatalf("%s: rank %d span %d %+v does not continue the tiling at %v", name, rank, i, s, end)
		}
		end = s.End
		if s.Comm {
			comm[s.Phase] += s.End - s.Start
		} else {
			comp[s.Phase] += s.End - s.Start
		}
	}
	if end != st.Clock {
		t.Fatalf("%s: rank %d spans end at %v, clock %v", name, rank, end, st.Clock)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for phase, ph := range st.Phases {
		if !near(comp[phase], ph.Comp) || !near(comm[phase], ph.Comm) {
			t.Fatalf("%s: rank %d phase %q spans comp %v comm %v, stats %v %v",
				name, rank, phase, comp[phase], comm[phase], ph.Comp, ph.Comm)
		}
	}
	for phase := range comp {
		if _, ok := st.Phases[phase]; !ok {
			t.Fatalf("%s: rank %d spans carry phase %q the stats lack", name, rank, phase)
		}
	}
	for phase := range comm {
		if _, ok := st.Phases[phase]; !ok {
			t.Fatalf("%s: rank %d spans carry phase %q the stats lack", name, rank, phase)
		}
	}
}

// checkCritPath asserts the analyzer's accounting identity: the path
// ends at the capture's makespan, segments tile [0, makespan], and the
// per-phase attribution sums to the makespan.
func checkCritPath(t *testing.T, name string, c *Capture) {
	t.Helper()
	r, err := CriticalPath(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.Makespan != c.Makespan() {
		t.Fatalf("%s: report makespan %v != capture %v", name, r.Makespan, c.Makespan())
	}
	end := 0.0
	for i, seg := range r.Segments {
		if seg.Start != end || seg.End < seg.Start {
			t.Fatalf("%s: segment %d %+v does not continue the path at %v", name, i, seg, end)
		}
		end = seg.End
	}
	if end != r.Makespan {
		t.Fatalf("%s: path ends at %v, makespan %v", name, end, r.Makespan)
	}
	var total float64
	for _, v := range r.Comp {
		total += v
	}
	for _, v := range r.Comm {
		total += v
	}
	if math.Abs(total-r.Makespan) > 1e-6*r.Makespan {
		t.Fatalf("%s: attribution %v != makespan %v", name, total, r.Makespan)
	}
}

// TestCriticalPathDelayedSelfMessage: a delay fault makes a message
// arrive after its send completed, so a self-message's wake is later
// than its send. The walk must continue at the send completion, or it
// lands on the same wake forever.
func TestCriticalPathDelayedSelfMessage(t *testing.T) {
	faults := &sim.FaultConfig{Seed: 1, Delay: 1, DelayMax: 40}
	c := simCapture(t, sim.Config{Procs: 1, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}, Faults: faults}, func(p *sim.Proc) {
		p.Charge(5)
		if !p.TrySend(0, 1, nil, 2) {
			panic("delay-only plan dropped a message")
		}
		p.Recv(0, 1)
		p.Charge(5)
	})
	checkCritPath(t, "self", c)
	r, _ := CriticalPath(c)
	if len(r.Segments) != 2 || r.Segments[1].Start != 17 || r.Segments[1].MsgFrom != 0 {
		t.Fatalf("want the path to jump at the send completion (t=17), got %+v", r.Segments)
	}
}

// TestCriticalPathDelayedMessages: CMS PACK at P in {4, 8} under a
// delay-only fault plan, over many seeds. Every capture's critical
// path must terminate and keep its accounting identity.
func TestCriticalPathDelayedMessages(t *testing.T) {
	for _, procs := range []int{4, 8} {
		for seed := uint64(1); seed <= 40; seed++ {
			c := opCapture(t, procs, pack.SchemeCMS, false, &sim.FaultConfig{Seed: seed, Delay: 0.2})
			checkCritPath(t, fmt.Sprintf("p%d/seed%d", procs, seed), c)
		}
	}
}
