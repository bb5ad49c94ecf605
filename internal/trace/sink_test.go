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

func TestSamplingKindAndRankFilter(t *testing.T) {
	inner := NewRetainSink(4)
	pol := SamplePolicy{Ranks: []int{1, 2}, Kinds: []sim.EventKind{sim.EvSend}}
	c := sinkRun(t, 4, NewSamplingSink(inner, pol))

	full := c.Events
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
	c := sinkRun(t, procs, NewSamplingSink(inner, SamplePolicy{MsgEvery: 3}))

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
	full := collect(c.Events)
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
