package sim

import (
	"errors"
	"testing"
)

// TestFlightRecorderWindow pins the ring semantics: a run producing
// more events than the capacity retains exactly the newest Capacity
// events per rank, oldest-first in the snapshot, and counts the rest
// as overwritten.
func TestFlightRecorderWindow(t *testing.T) {
	const ringCap = 8
	fr := MustNewFlightRecorder(2, ringCap)
	m := MustNew(Config{Procs: 2, Params: Params{Delta: 1}, Flight: fr})
	err := m.Run(func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Charge(1)
			// Alternate phases so each Charge flushes as its own event
			// instead of merging into one batch.
			if i%2 == 0 {
				p.SetPhase("a")
			} else {
				p.SetPhase("b")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := fr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d, want 2", len(snap))
	}
	for r, row := range snap {
		if len(row) != ringCap {
			t.Fatalf("rank %d retained %d events, want %d", r, len(row), ringCap)
		}
		if fr.Total(r) <= uint64(ringCap) {
			t.Fatalf("rank %d total %d, want > %d (ring must have wrapped)", r, fr.Total(r), ringCap)
		}
		for i := 1; i < len(row); i++ {
			if row[i].Seq <= row[i-1].Seq {
				t.Fatalf("rank %d snapshot out of order at %d: seq %d then %d", r, i, row[i-1].Seq, row[i].Seq)
			}
			if row[i].Rank != r {
				t.Fatalf("rank %d ring holds event owned by rank %d", r, row[i].Rank)
			}
		}
	}
}

// TestFlightOnlyTracing pins that attaching only a flight recorder
// turns the emit path on (the ring fills) without retaining full event
// buffers on the machine.
func TestFlightOnlyTracing(t *testing.T) {
	fr := MustNewFlightRecorder(2, 16)
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 1}, Flight: fr})
	err := m.Run(func(p *Proc) {
		peer := 1 - p.Rank()
		p.Send(peer, 7, nil, 4)
		p.Recv(peer, 7)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for r, row := range m.Events() {
		if len(row) != 0 {
			t.Fatalf("rank %d kept %d full-trace events without Config.Trace", r, len(row))
		}
	}
	snap := fr.Snapshot()
	for r, row := range snap {
		if len(row) == 0 {
			t.Fatalf("rank %d flight ring empty", r)
		}
	}
	// Both ranks saw a send, a deliver, a recv-block and a recv-wake.
	var kinds []EventKind
	for _, e := range snap[0] {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EvSend, EvDeliver, EvRecvBlock, EvRecvWake}
	if len(kinds) != len(want) {
		t.Fatalf("rank 0 ring kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("rank 0 ring kinds = %v, want %v", kinds, want)
		}
	}
}

// TestFlightRecorderTooSmall pins the construction-time size check.
func TestFlightRecorderTooSmall(t *testing.T) {
	fr := MustNewFlightRecorder(2, 8)
	if _, err := New(Config{Procs: 4, Flight: fr}); err == nil {
		t.Fatal("New accepted a flight recorder smaller than P")
	}
}

// TestErrDeadlockSentinel pins that the scheduler's deadlock run error
// matches sim.ErrDeadlock via errors.Is, so dump triggers can classify
// without parsing message text.
func TestErrDeadlockSentinel(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 99) // never sent
		}
	})
	if err == nil {
		t.Fatal("wedged run returned nil")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock error %v does not match ErrDeadlock", err)
	}
}
