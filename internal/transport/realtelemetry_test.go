package transport

// Tests for the real backend's observability layer: wall-clock trace
// events (RealConfig.Sink) and the zero-overhead guard for the
// untraced case.

import (
	"sync"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// ringBody is the shared workload: every rank sends its rank (rank+1
// words) around a ring, twice, with a phase switch in between.
func ringBody(p Endpoint) {
	next := (p.Rank() + 1) % p.NProcs()
	prev := (p.Rank() - 1 + p.NProcs()) % p.NProcs()
	p.Send(next, 7, []int{p.Rank()}, p.Rank()+1)
	p.Recv(prev, 7)
	p.SetPhase("second")
	sendInts(p, next, 8, []int{p.Rank(), p.Rank()})
	recvInts(p, prev, 8)
}

func TestRealBackendTraceEvents(t *testing.T) {
	const procs = 4
	rs := trace.NewRetainSink(procs)
	m := MustNewReal(RealConfig{Procs: procs, Params: sim.CM5Params(), Sink: rs})
	if err := m.Run(ringBody); err != nil {
		t.Fatal(err)
	}
	events := rs.Events()
	if len(events) != procs {
		t.Fatalf("retained rows = %d, want %d", len(events), procs)
	}
	sent := map[uint64]int{} // MsgID -> sending rank (EvSend only)
	for r, row := range events {
		if len(row) == 0 {
			t.Fatalf("rank %d recorded no events", r)
		}
		var prevTime float64
		kinds := map[sim.EventKind]int{}
		for _, ev := range row {
			if ev.Rank != r {
				t.Fatalf("rank %d stream carries event for rank %d", r, ev.Rank)
			}
			if ev.Time < prevTime {
				t.Fatalf("rank %d timeline not monotone: %f after %f", r, ev.Time, prevTime)
			}
			prevTime = ev.Time
			kinds[ev.Kind]++
			if ev.Kind == sim.EvSend {
				if ev.MsgID == 0 {
					t.Fatal("traced send has zero MsgID")
				}
				if src := sim.MsgIDSrc(ev.MsgID); src != r {
					t.Fatalf("MsgID encodes rank %d, sent by %d", src, r)
				}
				sent[ev.MsgID] = r
			}
		}
		for _, k := range []sim.EventKind{sim.EvSend, sim.EvDeliver, sim.EvRecvBlock, sim.EvRecvWake, sim.EvPhase} {
			if kinds[k] == 0 {
				t.Errorf("rank %d recorded no %v events", r, k)
			}
		}
	}
	// Every wake links back to a real send: the flow-arrow invariant.
	for _, row := range events {
		for _, ev := range row {
			if ev.Kind != sim.EvRecvWake {
				continue
			}
			if ev.MsgID == 0 {
				t.Fatal("traced recv-wake has zero MsgID (no flow arrow)")
			}
			if _, ok := sent[ev.MsgID]; !ok {
				t.Fatalf("recv-wake MsgID %#x matches no send", ev.MsgID)
			}
		}
	}
	// A second run streams the same events again into the same sink.
	if err := m.Run(ringBody); err != nil {
		t.Fatal(err)
	}
	if again := rs.Events(); len(again[0]) != 2*len(events[0]) {
		t.Errorf("after two runs rank 0 retained %d events, one run emitted %d", len(again[0]), len(events[0]))
	}
}

// collectSink gathers streamed events; ranks emit concurrently.
type collectSink struct {
	mu  sync.Mutex
	evs []sim.Event
}

func (s *collectSink) Emit(ev sim.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// TestRealBackendSinkStreamsEvents: a Tee hands every concurrently
// emitted event to each of its sinks.
func TestRealBackendSinkStreamsEvents(t *testing.T) {
	sink := &collectSink{}
	rs := trace.NewRetainSink(2)
	m := MustNewReal(RealConfig{Procs: 2, Params: sim.CM5Params(), Sink: trace.NewTee(sink, rs)})
	if err := m.Run(ringBody); err != nil {
		t.Fatal(err)
	}
	retained := 0
	for _, row := range rs.Events() {
		retained += len(row)
	}
	if retained == 0 || len(sink.evs) != retained {
		t.Errorf("sink streamed %d events, retain sink holds %d", len(sink.evs), retained)
	}
}

// TestRealSizedSinkTooSmall: NewReal rejects a sink built for fewer
// ranks than P, attached directly or inside a Tee, and transport.New
// maps the check through.
func TestRealSizedSinkTooSmall(t *testing.T) {
	for name, sink := range map[string]sim.EventSink{
		"retain": trace.NewRetainSink(2),
		"flight": trace.MustNewFlightRecorder(2, 8),
		"tee":    trace.NewTee(&collectSink{}, trace.NewRetainSink(2)),
	} {
		if _, err := NewReal(RealConfig{Procs: 4, Sink: sink}); err == nil {
			t.Errorf("%s: NewReal accepted a sink built for 2 ranks at P=4", name)
		}
		if _, err := New(BackendReal, sim.Config{Procs: 4, Sink: sink}); err == nil {
			t.Errorf("%s: New(real) accepted a sink built for 2 ranks at P=4", name)
		}
	}
	if _, err := NewReal(RealConfig{Procs: 4, Sink: trace.NewRetainSink(4)}); err != nil {
		t.Errorf("NewReal rejected a sink that covers P=4: %v", err)
	}
}

// TestRealSendRecvDisabledAllocs is the zero-overhead regression guard
// at the transport layer: put costs exactly its one inherent node
// allocation and poll costs none.
func TestRealSendRecvDisabledAllocs(t *testing.T) {
	q := newSpscQueue()
	msg := rmsg{tag: 1, payload: nil, words: 3}
	if n := testing.AllocsPerRun(200, func() {
		q.put(msg)
		q.poll()
	}); n > 1 {
		t.Errorf("uninstrumented put+poll allocates %v/op, want <= 1 (the queue node)", n)
	}
}

// TestRealBackendDisabledStatsUnchanged pins that an untraced run
// still counts its traffic.
func TestRealBackendDisabledStatsUnchanged(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2, Params: sim.CM5Params()})
	if err := m.Run(ringBody); err != nil {
		t.Fatal(err)
	}
	for r, st := range m.Stats() {
		if st.MsgsSent != 2 {
			t.Errorf("rank %d sent %d messages, want 2", r, st.MsgsSent)
		}
	}
}

func BenchmarkRealRingDisabled(b *testing.B) {
	m := MustNewReal(RealConfig{Procs: 4, Params: sim.CM5Params()})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Run(ringBody); err != nil {
			b.Fatal(err)
		}
	}
}
