package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
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

// checkRowsMatchStats asserts that each sender's row of the matrix
// sums to its own Stats counters: no send event was lost or counted
// twice between the emit path and the retained capture.
func checkRowsMatchStats(t *testing.T, name string, m *CommMatrix, stats []sim.Stats) {
	t.Helper()
	for src, st := range stats {
		var msgs, words int64
		for dst := 0; dst < m.P; dst++ {
			msgs += m.Total.Msgs[src*m.P+dst]
			words += m.Total.Words[src*m.P+dst]
		}
		if msgs != st.MsgsSent || words != st.WordsSent {
			t.Fatalf("%s: rank %d sent %d msgs / %d words by its events, stats say %d / %d",
				name, src, msgs, words, st.MsgsSent, st.WordsSent)
		}
	}
}

// TestRetainedMatrixOnRealBackend: real-backend ranks emit concurrently
// into one RetainSink (the case -race checks). The matrix built from
// the capture still reconciles with every rank's Stats, exactly the
// two phases that sent carry cells, and the rendering has a section
// for each.
func TestRetainedMatrixOnRealBackend(t *testing.T) {
	const procs = 4
	rs := NewRetainSink(procs)
	m, err := transport.New(transport.BackendReal, sim.Config{Procs: procs, Sink: rs})
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
	c := NewCapture(m, rs)
	mat := BuildMatrix(c)
	checkRowsMatchStats(t, "real", mat, c.Stats)
	if got := mat.PhaseNames(); !reflect.DeepEqual(got, []string{"exchange", "ring"}) {
		t.Fatalf("phases carrying sends %v, want [exchange ring]", got)
	}
	var buf bytes.Buffer
	WriteMatrix(&buf, mat)
	for _, want := range []string{"exchange:", "ring:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered matrix lacks the %q section:\n%s", want, buf.String())
		}
	}
}

// TestRetainedStreamReconcilesWithStats: on the emulator, the retained
// events account for every rank's counters: sends and words per sender
// equal Stats, charge batches sum to Comp, and send occupancy plus
// receive waiting sum to Comm.
func TestRetainedStreamReconcilesWithStats(t *testing.T) {
	const procs = 4
	c := sinkRun(t, procs, nil)
	checkRowsMatchStats(t, "sim", BuildMatrix(c), c.Stats)
	for i, st := range c.Stats {
		var busy, comm float64
		for _, e := range c.Events[i] {
			switch e.Kind {
			case sim.EvCharge:
				busy += e.Dur
			case sim.EvSend, sim.EvRecvWake:
				comm += e.Dur
			}
		}
		if math.Abs(busy-st.Comp) > 1e-6 {
			t.Fatalf("rank %d charges sum to %.9f, Comp %.9f", i, busy, st.Comp)
		}
		if math.Abs(comm-st.Comm) > 1e-6 {
			t.Fatalf("rank %d sends and waits sum to %.9f, stats Comm %.9f", i, comm, st.Comm)
		}
	}
}
