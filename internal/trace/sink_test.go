package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// allToAllBody is a small two-phase SPMD exchange: a charge-heavy
// "compose" phase, then every rank sends one message of a distinct
// size to every rank (itself included) and receives them all.
func allToAllBody(p transport.Endpoint) {
	n := p.NProcs()
	prev := p.SetPhase("compose")
	p.Charge(10 * (p.Rank() + 1))
	p.SetPhase("exchange")
	for d := 0; d < n; d++ {
		p.Send(d, 1, nil, 1+(p.Rank()+d)%5)
	}
	for s := 0; s < n; s++ {
		p.Recv(s, 1)
	}
	p.SetPhase(prev)
	p.Charge(3)
}

// sinkRun executes allToAllBody on a fresh emulator with the given sink
// teed next to a RetainSink, and returns the retained capture as the
// baseline to compare the sink against.
func sinkRun(t *testing.T, procs int, sink sim.EventSink) *Capture {
	t.Helper()
	cfg := sim.Config{Procs: procs, Params: sim.Params{Tau: 10, Mu: 1, Delta: 0.5}, Sink: sink}
	return simCapture(t, cfg, func(p *sim.Proc) { allToAllBody(p) })
}

// TestRetainSinkMatchesTraceBuffers: two sinks on one Tee see the same
// stream — the RetainSink's per-rank rows equal the JSONL stream read
// back and regrouped by rank — on the emulator and on the real
// backend, whose ranks emit concurrently.
func TestRetainSinkMatchesTraceBuffers(t *testing.T) {
	for _, b := range []transport.Backend{transport.BackendSim, transport.BackendReal} {
		rs := NewRetainSink(4)
		var buf bytes.Buffer
		js := NewJSONLSink(&buf)
		m, err := transport.New(b, sim.Config{Procs: 4, Params: sim.Params{Tau: 10, Mu: 1, Delta: 0.5}, Sink: NewTee(rs, js)})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(allToAllBody); err != nil {
			t.Fatal(err)
		}
		if err := js.Flush(); err != nil {
			t.Fatalf("%v: Flush: %v", b, err)
		}
		events, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%v: ReadJSONL: %v", b, err)
		}
		retained := rs.Events()
		if len(retained[0]) == 0 {
			t.Fatalf("%v: retain sink kept no events", b)
		}
		if !reflect.DeepEqual(EventsByRank(events, 4), retained) {
			t.Fatalf("%v: retain sink diverges from the JSONL sink on the same Tee", b)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	js := NewJSONLSink(&buf)
	c := sinkRun(t, 3, js)
	if err := js.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	got := EventsByRank(events, 3)
	want := c.Events
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL round trip diverges:\ngot  %d/%d/%d events\nwant %d/%d/%d",
			len(got[0]), len(got[1]), len(got[2]), len(want[0]), len(want[1]), len(want[2]))
	}
}

// TestAggSinkOnRealBackend: real-backend ranks emit concurrently, so
// they also create the shared per-phase size histograms concurrently
// (the case -race checks). The rollups still reconcile with Stats, and
// each phase's histogram counts exactly that phase's sends.
func TestAggSinkOnRealBackend(t *testing.T) {
	const procs = 4
	agg := NewAggSink(procs)
	m, err := transport.New(transport.BackendReal, sim.Config{Procs: procs, Sink: agg})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(p transport.Endpoint) {
		allToAllBody(p)
		p.SetPhase("ring")
		p.Send((p.Rank()+1)%procs, 2, nil, 3)
		p.Recv((p.Rank()+procs-1)%procs, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.CheckStats(m.Stats()); err != nil {
		t.Fatalf("CheckStats: %v", err)
	}
	phases := agg.Matrix().ByPhase
	if len(phases) != 2 {
		t.Fatalf("%d phases carried sends, want 2 (exchange, ring)", len(phases))
	}
	for phase, cells := range phases {
		sends, _ := cells.Totals()
		if n := agg.SizeCount(phase); n != sends {
			t.Errorf("phase %q size histogram has %d observations, want its %d sends", phase, n, sends)
		}
	}
}

func TestAggSinkReconcilesWithRetainedCapture(t *testing.T) {
	const procs = 4
	agg := NewAggSink(procs)
	c := sinkRun(t, procs, agg)

	if err := agg.CheckStats(c.Stats); err != nil {
		t.Fatalf("CheckStats: %v", err)
	}

	// The dense matrix materialized from the sparse cells must equal
	// the one built from the fully retained capture.
	want := BuildMatrix(c)
	got := agg.Matrix()
	if !reflect.DeepEqual(got.Total, want.Total) {
		t.Fatalf("aggregated total matrix diverges from retained BuildMatrix")
	}
	if len(got.ByPhase) != len(want.ByPhase) {
		t.Fatalf("phase sections: got %d, want %d", len(got.ByPhase), len(want.ByPhase))
	}
	for phase, cells := range want.ByPhase {
		if !reflect.DeepEqual(got.ByPhase[phase], cells) {
			t.Fatalf("phase %q matrix diverges", phase)
		}
	}

	// Busy/Comm/Wait reconcile with the machine stats: charges sum to
	// Comp, send occupancy plus receive waiting to Comm.
	for i, st := range c.Stats {
		r := agg.Rollups()[i]
		if math.Abs(r.Busy-st.Comp) > 1e-6 {
			t.Fatalf("rank %d Busy %.9f != Comp %.9f", i, r.Busy, st.Comp)
		}
		if math.Abs((r.Comm+r.Wait)-st.Comm) > 1e-6 {
			t.Fatalf("rank %d Comm+Wait %.9f != stats Comm %.9f", i, r.Comm+r.Wait, st.Comm)
		}
	}

	// Size histogram: every send of the exchange phase was observed.
	msgs, _ := agg.Totals()
	if n := agg.SizeCount("exchange"); n != msgs {
		t.Fatalf("exchange size histogram has %d observations, want %d", n, msgs)
	}
	if q := agg.SizeQuantile("exchange", 1); q < 1 || q > 5 {
		t.Fatalf("exchange p100 message size %d, want within [1,5]", q)
	}

	// No event retention: the sink's variable memory is the sparse
	// cells, bounded by (ranks × phases × destinations), not by events.
	if cells := agg.Cells(); cells > procs*procs*2 {
		t.Fatalf("aggregator allocated %d cells for a %d-rank machine", cells, procs)
	}
	if agg.EventsSeen() == 0 {
		t.Fatal("aggregator saw no events")
	}
}
