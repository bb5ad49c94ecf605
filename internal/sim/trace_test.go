package sim_test

// Tests of the emulator's event stream, read back through the sinks of
// internal/trace. They live in the external test package because trace
// imports sim.

import (
	"reflect"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// tracedBody is a small deterministic two-phase exchange used by the
// event-tracing tests: rank 0 computes, sends, computes; rank 1
// computes less, then blocks on the message.
func tracedBody(p *sim.Proc) {
	p.Charge(10)
	p.Charge(5) // contiguous: must merge with the previous batch
	prev := p.SetPhase("prs")
	if p.Rank() == 0 {
		p.Charge(3)
		p.Send(1, 7, []int{1, 2}, 2)
	} else {
		p.Recv(0, 7)
	}
	p.SetPhase(prev)
	p.Charge(4)
}

// tracedRun runs tracedBody on a two-rank machine whose Sink is a
// RetainSink and returns the machine and the retained streams.
func tracedRun(t *testing.T) (*sim.Machine, [][]sim.Event) {
	t.Helper()
	rs := trace.NewRetainSink(2)
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}, Sink: rs})
	if err := m.Run(tracedBody); err != nil {
		t.Fatal(err)
	}
	return m, rs.Events()
}

func TestEventStream(t *testing.T) {
	_, ev := tracedRun(t)
	if len(ev) != 2 {
		t.Fatalf("want 2 event rows, got %d", len(ev))
	}

	// Rank 0: charge [0,15), phase prs, charge [15,18), send done at 30
	// (tau 10 + mu*2), deliver at 30, phase default, charge [30,34).
	kinds := func(row []sim.Event) []sim.EventKind {
		out := make([]sim.EventKind, len(row))
		for i, e := range row {
			out[i] = e.Kind
		}
		return out
	}
	want0 := []sim.EventKind{sim.EvCharge, sim.EvPhase, sim.EvCharge, sim.EvSend, sim.EvDeliver, sim.EvPhase, sim.EvCharge}
	if got := kinds(ev[0]); !reflect.DeepEqual(got, want0) {
		t.Fatalf("rank 0 kinds = %v, want %v", got, want0)
	}
	want1 := []sim.EventKind{sim.EvCharge, sim.EvPhase, sim.EvRecvBlock, sim.EvRecvWake, sim.EvPhase, sim.EvCharge}
	if got := kinds(ev[1]); !reflect.DeepEqual(got, want1) {
		t.Fatalf("rank 1 kinds = %v, want %v", got, want1)
	}

	// Contiguous charges merged: the first batch is 15 ops, 15 µs.
	if c := ev[0][0]; c.Ops != 15 || c.Dur != 15 || c.Time != 15 || c.Phase != "default" {
		t.Fatalf("merged charge batch wrong: %+v", c)
	}
	send := ev[0][3]
	if send.Time != 30 || send.Dur != 12 || send.Peer != 1 || send.Tag != 7 || send.Words != 2 || send.MsgID == 0 {
		t.Fatalf("send event wrong: %+v", send)
	}
	if del := ev[0][4]; del.Time != 30 || del.MsgID != send.MsgID {
		t.Fatalf("deliver event wrong: %+v", del)
	}
	wake := ev[1][3]
	if wake.MsgID != send.MsgID || wake.Time != 30 || wake.Dur != 15 || wake.Peer != 0 || wake.Words != 2 {
		t.Fatalf("wake event wrong: %+v (blocked at 15, arrival 30)", wake)
	}
	if blk := ev[1][2]; blk.Time != 15 || blk.Peer != 0 || blk.Tag != 7 {
		t.Fatalf("recv-block event wrong: %+v", blk)
	}
	if ph := ev[0][1]; ph.Phase != "prs" || ph.Time != 15 {
		t.Fatalf("phase event wrong: %+v", ph)
	}
}

// TestEventSeqDeterministicCoop locks in the emulator's
// determinism contract: two identical runs produce identical event
// streams, including the machine-global sequence numbers.
func TestEventSeqDeterministicCoop(t *testing.T) {
	_, a := tracedRun(t)
	_, b := tracedRun(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cooperative event streams differ across runs:\n%v\nvs\n%v", a, b)
	}
	// Machine-global seq: the union over ranks is exactly 1..n.
	seen := map[uint64]bool{}
	n := 0
	for _, row := range a {
		for _, e := range row {
			seen[e.Seq] = true
			n++
		}
	}
	for s := uint64(1); s <= uint64(n); s++ {
		if !seen[s] {
			t.Fatalf("sequence numbers not contiguous: missing %d of %d", s, n)
		}
	}
}

// captureSink records emitted events. The emulator runs one rank at a
// time, so Emit calls never overlap.
type captureSink struct {
	evs []sim.Event
}

func (s *captureSink) Emit(e sim.Event) { s.evs = append(s.evs, e) }

func TestEventSinkStreams(t *testing.T) {
	sink := &captureSink{}
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}, Sink: sink})
	if err := m.Run(tracedBody); err != nil {
		t.Fatal(err)
	}
	if len(sink.evs) == 0 {
		t.Fatal("sink saw no events")
	}
	// The sink stream is globally seq-ordered.
	for i := 1; i < len(sink.evs); i++ {
		if sink.evs[i].Seq != sink.evs[i-1].Seq+1 {
			t.Fatalf("sink stream out of order at %d: %+v after %+v", i, sink.evs[i], sink.evs[i-1])
		}
	}
}

func TestSendFreeTracedDeliverOnly(t *testing.T) {
	rs := trace.NewRetainSink(2)
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}, Sink: rs})
	err := m.Run(func(p *sim.Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 3, "ctl")
		} else {
			p.Recv(0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := rs.Events()
	if len(ev[0]) != 1 || ev[0][0].Kind != sim.EvDeliver || ev[0][0].MsgID == 0 {
		t.Fatalf("SendFree should record exactly one deliver event, got %v", ev[0])
	}
	if wake := ev[1][1]; wake.Kind != sim.EvRecvWake || wake.MsgID != ev[0][0].MsgID {
		t.Fatalf("control message wake not linked: %+v", ev[1])
	}
}

// TestStatsSnapshotIsolated is the regression test for the historical
// aliasing bug: Stats() results shared their Phases maps with internal
// state, so mutating a result (or running again) corrupted earlier
// snapshots.
func TestStatsSnapshotIsolated(t *testing.T) {
	m, _ := tracedRun(t)

	first := m.Stats()

	// Mutating the returned snapshot must not affect a later read.
	first[0].Phases["prs"] = sim.PhaseStats{Comp: 1e9, Comm: 1e9}

	second := m.Stats()
	if second[0].Phases["prs"].Comp == 1e9 {
		t.Fatal("mutating a Stats() result leaked into machine state")
	}

	// A second Run must not corrupt a snapshot taken before it.
	want := second[0].Phases["prs"]
	if err := m.Run(func(p *sim.Proc) { p.SetPhase("prs"); p.Charge(1000) }); err != nil {
		t.Fatal(err)
	}
	if got := second[0].Phases["prs"]; got != want {
		t.Fatalf("second Run corrupted earlier snapshot: %+v != %+v", got, want)
	}
}

// TestSpansRecordedInSim: the timeline derived from the retained
// stream splits at the phase switch and reaches the final clock.
func TestSpansRecordedInSim(t *testing.T) {
	rs := trace.NewRetainSink(1)
	m := sim.MustNew(sim.Config{Procs: 1, Params: sim.Params{Delta: 1}, Sink: rs})
	if err := m.Run(func(p *sim.Proc) { p.Charge(3); p.SetPhase("x"); p.Charge(2) }); err != nil {
		t.Fatal(err)
	}
	spans := trace.NewCapture(m, rs).Spans
	if len(spans) != 1 || len(spans[0]) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0][1].Phase != "x" || spans[0][1].End != 5 {
		t.Fatalf("second span wrong: %+v", spans[0][1])
	}
}

// faultStorm is a communication-free injection workload: every rank
// fires a burst of delivery attempts at its neighbours with a naive
// bounded retry, and nobody receives — with faults on, the leftovers
// become residual instead of an undelivered-messages error. It
// exercises every injection path without needing a protocol.
func faultStorm(p *sim.Proc) {
	n := p.NProcs()
	for i := 0; i < 120; i++ {
		dst := (p.Rank() + 1 + i%(n-1)) % n
		for attempt := 0; attempt < 3; attempt++ {
			if p.TrySend(dst, 5, i, 1) {
				break
			}
			p.RetryWait(dst, 5)
		}
		p.Charge(3)
	}
}

// TestFaultDeterminismAcrossSchedulers: a fault storm replayed with the
// same seed on a fresh machine reproduces the fault report, the stats
// and the full retained event streams, sequence numbers included, while
// a different seed injects at different points.
func TestFaultDeterminismAcrossSchedulers(t *testing.T) {
	run := func(seed uint64) (*sim.Machine, [][]sim.Event) {
		rs := trace.NewRetainSink(6)
		m := sim.MustNew(sim.Config{
			Procs: 6, Params: sim.CM5Params(), Sink: rs,
			Faults: &sim.FaultConfig{Seed: seed, Drop: 0.1, Dup: 0.08, Reorder: 0.1, Delay: 0.1, Stall: 0.05},
		})
		if err := m.Run(faultStorm); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return m, rs.Events()
	}
	first, firstEvents := run(11)
	replay, replayEvents := run(11)

	rep := first.FaultReport()
	if rep == nil {
		t.Fatal("missing fault report")
	}
	if rep.Total.Injected() == 0 {
		t.Fatal("no faults injected — the storm parameters are too tame")
	}
	if rep.Total.Drops == 0 || rep.Total.Dups == 0 || rep.Total.Reorders == 0 ||
		rep.Total.Delays == 0 || rep.Total.Stalls == 0 || rep.Total.Retries == 0 {
		t.Errorf("some fault kind never fired: %+v", rep.Total)
	}
	if !reflect.DeepEqual(replay.FaultReport(), rep) {
		t.Errorf("same seed did not replay the same fault report:\n%+v\nvs\n%+v", rep, replay.FaultReport())
	}
	if !reflect.DeepEqual(replay.Stats(), first.Stats()) {
		t.Error("same seed did not replay the same stats")
	}
	if !reflect.DeepEqual(replayEvents, firstEvents) {
		t.Error("same seed did not replay the same event streams")
	}

	other, _ := run(12)
	repO := other.FaultReport()
	if repO.Total.Injected() == 0 {
		t.Error("seed 12 injected nothing")
	}
	if reflect.DeepEqual(repO.PerRank, rep.PerRank) {
		t.Error("different seeds produced identical injection points")
	}
}
