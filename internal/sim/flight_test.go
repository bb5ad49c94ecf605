package sim_test

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// TestFlightRecorderWindow pins the ring semantics: a run producing
// more events than the capacity retains exactly the newest capacity
// events per rank, oldest-first in the snapshot — the tail of what a
// RetainSink on the same Tee kept.
func TestFlightRecorderWindow(t *testing.T) {
	const ringCap = 8
	fr := trace.MustNewFlightRecorder(2, ringCap)
	rs := trace.NewRetainSink(2)
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.Params{Delta: 1}, Sink: trace.NewTee(fr, rs)})
	err := m.Run(func(p *sim.Proc) {
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
	snap, full := fr.Snapshot(), rs.Events()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d, want 2", len(snap))
	}
	for r, row := range snap {
		if len(full[r]) <= ringCap {
			t.Fatalf("rank %d emitted %d events, want > %d (ring must have wrapped)", r, len(full[r]), ringCap)
		}
		if want := full[r][len(full[r])-ringCap:]; !reflect.DeepEqual(row, want) {
			t.Fatalf("rank %d window %v, want the newest %d events %v", r, row, ringCap, want)
		}
	}
}

// TestFlightOnlyTracing pins that a flight recorder alone on the Sink
// turns the emit path on: the rings fill with every event kind of the
// exchange.
func TestFlightOnlyTracing(t *testing.T) {
	fr := trace.MustNewFlightRecorder(2, 16)
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.Params{Tau: 1}, Sink: fr})
	err := m.Run(func(p *sim.Proc) {
		peer := 1 - p.Rank()
		p.Send(peer, 7, nil, 4)
		p.Recv(peer, 7)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := fr.Snapshot()
	for r, row := range snap {
		if len(row) == 0 {
			t.Fatalf("rank %d flight ring empty", r)
		}
	}
	// Both ranks saw a send, a deliver, a recv-block and a recv-wake.
	var kinds []sim.EventKind
	for _, e := range snap[0] {
		kinds = append(kinds, e.Kind)
	}
	want := []sim.EventKind{sim.EvSend, sim.EvDeliver, sim.EvRecvBlock, sim.EvRecvWake}
	if len(kinds) != len(want) {
		t.Fatalf("rank 0 ring kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("rank 0 ring kinds = %v, want %v", kinds, want)
		}
	}
}

// TestFlightRecorderTooSmall pins the construction-time size check
// for a flight recorder on the Sink, attached directly or inside a
// Tee.
func TestFlightRecorderTooSmall(t *testing.T) {
	fr := trace.MustNewFlightRecorder(2, 8)
	if _, err := sim.New(sim.Config{Procs: 4, Sink: fr}); err == nil {
		t.Fatal("New accepted a flight recorder smaller than P")
	}
	if _, err := sim.New(sim.Config{Procs: 4, Sink: trace.NewTee(trace.NewRetainSink(4), fr)}); err == nil {
		t.Fatal("New accepted a Tee holding a flight recorder smaller than P")
	}
}

// TestSizedSinkTooSmall: every per-rank sink built for fewer ranks
// than the machine is rejected, directly, inside a Tee and behind a
// SamplingSink, instead of silently dropping the extra ranks' events.
// Sinks that cover the machine, and sinks with no rank count, pass.
func TestSizedSinkTooSmall(t *testing.T) {
	small := map[string]sim.EventSink{
		"retain":          trace.NewRetainSink(3),
		"agg":             trace.NewAggSink(3),
		"tee/retain":      trace.NewTee(trace.NewJSONLSink(io.Discard), trace.NewRetainSink(3)),
		"tee/agg":         trace.NewTee(trace.NewAggSink(4), trace.NewAggSink(3)),
		"sampling/retain": trace.NewSamplingSink(trace.NewRetainSink(3), trace.SamplePolicy{MsgEvery: 2}),
	}
	for name, sink := range small {
		if _, err := sim.New(sim.Config{Procs: 4, Sink: sink}); err == nil {
			t.Errorf("%s: New accepted a sink built for 3 ranks at P=4", name)
		}
	}
	fits := map[string]sim.EventSink{
		"retain": trace.NewRetainSink(4),
		"tee":    trace.NewTee(trace.NewRetainSink(5), trace.NewAggSink(4), trace.MustNewFlightRecorder(4, 8)),
		"jsonl":  trace.NewJSONLSink(io.Discard),
		"plain":  &captureSink{},
	}
	for name, sink := range fits {
		if _, err := sim.New(sim.Config{Procs: 4, Sink: sink}); err != nil {
			t.Errorf("%s: New rejected a sink that covers P=4: %v", name, err)
		}
	}
}

// TestErrDeadlockSentinel pins that the scheduler's deadlock run error
// matches sim.ErrDeadlock via errors.Is, so dump triggers can classify
// without parsing message text.
func TestErrDeadlockSentinel(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2})
	err := m.Run(func(p *sim.Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 99) // never sent
		}
	})
	if err == nil {
		t.Fatal("wedged run returned nil")
	}
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlock error %v does not match ErrDeadlock", err)
	}
}
