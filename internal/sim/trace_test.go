package sim

import (
	"reflect"
	"testing"
)

// tracedBody is a small deterministic two-phase exchange used by the
// event-tracing tests: rank 0 computes, sends, computes; rank 1
// computes less, then blocks on the message.
func tracedBody(p *Proc) {
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

func tracedMachine(t *testing.T) *Machine {
	t.Helper()
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 10, Mu: 1, Delta: 1}, Record: true, Trace: true})
	if err := m.Run(tracedBody); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEventStream(t *testing.T) {
	m := tracedMachine(t)
	ev := m.Events()
	if len(ev) != 2 {
		t.Fatalf("want 2 event rows, got %d", len(ev))
	}

	// Rank 0: charge [0,15), phase prs, charge [15,18), send done at 30
	// (tau 10 + mu*2), deliver at 30, phase default, charge [30,34).
	kinds := func(row []Event) []EventKind {
		out := make([]EventKind, len(row))
		for i, e := range row {
			out[i] = e.Kind
		}
		return out
	}
	want0 := []EventKind{EvCharge, EvPhase, EvCharge, EvSend, EvDeliver, EvPhase, EvCharge}
	if got := kinds(ev[0]); !reflect.DeepEqual(got, want0) {
		t.Fatalf("rank 0 kinds = %v, want %v", got, want0)
	}
	want1 := []EventKind{EvCharge, EvPhase, EvRecvBlock, EvRecvWake, EvPhase, EvCharge}
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
	a := tracedMachine(t).Events()
	b := tracedMachine(t).Events()
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

func TestEventsOffByDefault(t *testing.T) {
	m := MustNew(Config{Procs: 1, Params: Params{Delta: 1}})
	if err := m.Run(func(p *Proc) { p.Charge(5) }); err != nil {
		t.Fatal(err)
	}
	if row := m.Events()[0]; row != nil {
		t.Fatalf("tracing off should keep no events, got %+v", row)
	}
}

// captureSink records emitted events. The emulator runs one rank at a
// time, so Emit calls never overlap.
type captureSink struct {
	evs []Event
}

func (s *captureSink) Emit(e Event) { s.evs = append(s.evs, e) }

func TestEventSinkStreams(t *testing.T) {
	sink := &captureSink{}
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 10, Mu: 1, Delta: 1}, Sink: sink})
	if err := m.Run(tracedBody); err != nil {
		t.Fatal(err)
	}
	if len(sink.evs) == 0 {
		t.Fatal("sink saw no events")
	}
	// Sink-only tracing must not buffer.
	if row := m.Events(); row[0] != nil || row[1] != nil {
		t.Fatalf("Sink without Trace should not buffer, got %v", row)
	}
	// The sink stream is globally seq-ordered.
	for i := 1; i < len(sink.evs); i++ {
		if sink.evs[i].Seq != sink.evs[i-1].Seq+1 {
			t.Fatalf("sink stream out of order at %d: %+v after %+v", i, sink.evs[i], sink.evs[i-1])
		}
	}
}

func TestSendFreeTracedDeliverOnly(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 10, Mu: 1, Delta: 1}, Trace: true})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 3, "ctl")
		} else {
			p.Recv(0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Events()
	if len(ev[0]) != 1 || ev[0][0].Kind != EvDeliver || ev[0][0].MsgID == 0 {
		t.Fatalf("SendFree should record exactly one deliver event, got %v", ev[0])
	}
	if wake := ev[1][1]; wake.Kind != EvRecvWake || wake.MsgID != ev[0][0].MsgID {
		t.Fatalf("control message wake not linked: %+v", ev[1])
	}
}

// TestStatsSnapshotIsolated is the regression test for the historical
// aliasing bug: the Stats()/Spans() results shared maps and span rows
// with internal state, so mutating a result (or running again)
// corrupted earlier snapshots.
func TestStatsSnapshotIsolated(t *testing.T) {
	m := tracedMachine(t)

	first := m.Stats()
	firstSpans := m.Spans()

	// Mutating the returned snapshot must not affect a later read.
	first[0].Phases["prs"] = PhaseStats{Comp: 1e9, Comm: 1e9}
	firstSpans[0][0].End = -1

	second := m.Stats()
	if second[0].Phases["prs"].Comp == 1e9 {
		t.Fatal("mutating a Stats() result leaked into machine state")
	}
	if m.Spans()[0][0].End == -1 {
		t.Fatal("mutating a Spans() result leaked into machine state")
	}

	// A second Run must not corrupt a snapshot taken before it.
	want := second[0].Phases["prs"]
	if err := m.Run(func(p *Proc) { p.SetPhase("prs"); p.Charge(1000) }); err != nil {
		t.Fatal(err)
	}
	if got := second[0].Phases["prs"]; got != want {
		t.Fatalf("second Run corrupted earlier snapshot: %+v != %+v", got, want)
	}
}
