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

// sinkRun executes allToAllBody on a fresh machine with the given sink
// attached (and full tracing on, so tests can compare against the
// retained baseline).
func sinkRun(t *testing.T, procs int, sink sim.EventSink) *sim.Machine {
	t.Helper()
	m := sim.MustNew(sim.Config{
		Procs:  procs,
		Params: sim.Params{Tau: 10, Mu: 1, Delta: 0.5},
		Trace:  true, Record: true, Sink: sink,
	})
	if err := m.Run(func(p *sim.Proc) { allToAllBody(p) }); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRetainSinkMatchesTraceBuffers: the retain sink keeps exactly the
// per-rank streams the Trace buffers hold, on the emulator and on the
// real backend, whose ranks emit concurrently.
func TestRetainSinkMatchesTraceBuffers(t *testing.T) {
	rs := NewRetainSink(4)
	m := sinkRun(t, 4, rs)
	if !reflect.DeepEqual(rs.Events(), m.Events()) {
		t.Fatal("sim: retain sink diverges from Config.Trace buffers")
	}

	rs = NewRetainSink(4)
	rm := transport.MustNewReal(transport.RealConfig{Procs: 4, Trace: true, Sink: rs})
	if err := rm.Run(allToAllBody); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Events(), rm.Events()) {
		t.Fatal("real: retain sink diverges from the Trace buffers")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	js := NewJSONLSink(&buf)
	m := sinkRun(t, 3, js)
	if err := js.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	got := EventsByRank(events, 3)
	want := m.Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL round trip diverges:\ngot  %d/%d/%d events\nwant %d/%d/%d",
			len(got[0]), len(got[1]), len(got[2]), len(want[0]), len(want[1]), len(want[2]))
	}
}

func TestAggSinkReconcilesWithRetainedCapture(t *testing.T) {
	const procs = 4
	agg := NewAggSink(procs)
	m := sinkRun(t, procs, agg)

	if err := agg.CheckStats(m.Stats()); err != nil {
		t.Fatalf("CheckStats: %v", err)
	}

	// The dense matrix materialized from the sparse cells must equal
	// the one built from the fully retained capture.
	want := BuildMatrix(CaptureMachine(m))
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
	for i, st := range m.Stats() {
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

func TestSamplingKindAndRankFilter(t *testing.T) {
	inner := NewRetainSink(4)
	pol := SamplePolicy{Ranks: []int{1, 2}, Kinds: []sim.EventKind{sim.EvSend}}
	m := sinkRun(t, 4, NewSamplingSink(inner, pol))

	full := m.Events()
	got := inner.Events()
	for r := 0; r < 4; r++ {
		if r != 1 && r != 2 {
			if len(got[r]) != 0 {
				t.Fatalf("rank %d filtered out but kept %d events", r, len(got[r]))
			}
			continue
		}
		var wantCharges, gotCharges int64
		for _, e := range full[r] {
			if e.Kind == sim.EvCharge {
				wantCharges += e.Ops
			}
		}
		for _, e := range got[r] {
			switch e.Kind {
			case sim.EvSend:
				// kept by the kind filter
			case sim.EvCharge:
				gotCharges += e.Ops
			default:
				t.Fatalf("rank %d: kind filter leaked %v", r, e.Kind)
			}
		}
		// Charge batches bypass the kind filter, so the op accounting
		// of the surviving ranks is exact.
		if gotCharges != wantCharges {
			t.Fatalf("rank %d: sampled charges %d ops, want %d", r, gotCharges, wantCharges)
		}
	}
}

func TestSamplingKeepsMessagesWhole(t *testing.T) {
	const procs = 4
	inner := NewRetainSink(procs)
	m := sinkRun(t, procs, NewSamplingSink(inner, SamplePolicy{MsgEvery: 3}))

	// Kinds per message id in the full stream and in the sampled one.
	collect := func(rows [][]sim.Event) map[uint64]map[sim.EventKind]int {
		out := map[uint64]map[sim.EventKind]int{}
		for _, row := range rows {
			for _, e := range row {
				if e.MsgID == 0 {
					continue
				}
				if out[e.MsgID] == nil {
					out[e.MsgID] = map[sim.EventKind]int{}
				}
				out[e.MsgID][e.Kind]++
			}
		}
		return out
	}
	full := collect(m.Events())
	sampled := collect(inner.Events())
	if len(sampled) == 0 || len(sampled) >= len(full) {
		t.Fatalf("1-in-3 sampling kept %d of %d messages", len(sampled), len(full))
	}
	for id, kinds := range sampled {
		if !reflect.DeepEqual(kinds, full[id]) {
			t.Fatalf("message %d sampled partially: got %v, want %v", id, kinds, full[id])
		}
	}
}
