package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"packunpack/internal/metrics"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// runTracedReal executes a small exchange pattern on a real machine
// with a RetainSink and metrics on, returning the machine and its
// capture.
func runTracedReal(t *testing.T, procs int) (*transport.RealMachine, *Capture) {
	t.Helper()
	rs := NewRetainSink(procs)
	m, err := transport.NewReal(transport.RealConfig{
		Procs: procs, Params: sim.CM5Params(), Sink: rs, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(p transport.Endpoint) {
		p.SetPhase("exchange")
		for d := 0; d < p.NProcs(); d++ {
			if d != p.Rank() {
				p.Send(d, 11, []int{p.Rank(), d}, 2)
			}
		}
		for s := 0; s < p.NProcs(); s++ {
			if s != p.Rank() {
				p.Recv(s, 11)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, NewCapture(m, rs)
}

func TestCaptureRealProducesSpansAndEvents(t *testing.T) {
	_, c := runTracedReal(t, 4)
	if !c.HasEvents() {
		t.Fatal("real capture has no events")
	}
	if len(c.Spans) != 4 {
		t.Fatalf("spans rows = %d, want 4", len(c.Spans))
	}
	for rank, row := range c.Spans {
		if len(row) == 0 {
			t.Errorf("rank %d synthesized no spans", rank)
		}
		for _, s := range row {
			if s.End <= s.Start {
				t.Errorf("rank %d span [%f,%f] not positive", rank, s.Start, s.End)
			}
		}
	}
	if c.Makespan() <= 0 {
		t.Error("real capture has zero makespan")
	}
}

func TestSpansFromEventsSynthesis(t *testing.T) {
	// Hand-built stream: comp 0..10, phase switch at 10, a receive that
	// waited 5µs ending at 20, comp to the final clock 25.
	events := [][]sim.Event{{
		{Kind: sim.EvPhase, Time: 10, Phase: "m2m"},
		{Kind: sim.EvRecvWake, Time: 20, Dur: 5, Peer: 1, MsgID: 42},
	}}
	spans := SpansFromEvents(events, []float64{25})
	want := []Span{
		{Phase: "default", Comm: false, Start: 0, End: 10},
		{Phase: "m2m", Comm: false, Start: 10, End: 15},
		{Phase: "m2m", Comm: true, Start: 15, End: 20},
		{Phase: "m2m", Comm: false, Start: 20, End: 25},
	}
	if len(spans[0]) != len(want) {
		t.Fatalf("got %d spans %+v, want %d", len(spans[0]), spans[0], len(want))
	}
	for i, s := range spans[0] {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestWriteChromeRealCapture(t *testing.T) {
	_, c := runTracedReal(t, 4)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, c); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// Flow arrows: every "s" must have a matching "f" with the same id.
	starts, finishes := map[string]int{}, map[string]int{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts[ev.ID]++
		case "f":
			finishes[ev.ID]++
		case "X":
			slices++
		}
	}
	if len(starts) == 0 {
		t.Fatal("no flow starts in real-backend chrome export")
	}
	if slices == 0 {
		t.Fatal("no slices in real-backend chrome export (spans missing)")
	}
	for id := range finishes {
		if starts[id] == 0 {
			t.Errorf("flow finish %s has no start", id)
		}
	}
	// 4 ranks * 3 peers = 12 counted messages; every one traced.
	if len(starts) != 12 {
		t.Errorf("flow starts = %d, want 12", len(starts))
	}
}

// TestMatrixFromMetricsMatchesEventMatrix cross-checks the two
// independent records of real-backend traffic: the P×P matrix
// BuildMatrix derives from the event stream must equal the one read
// back from the transport_link_* counters, cell by cell.
func TestMatrixFromMetricsMatchesEventMatrix(t *testing.T) {
	m, c := runTracedReal(t, 4)
	fromEvents := BuildMatrix(c)
	fromMetrics := matrixFromCounters(t, m.Metrics().Snapshot(), m.Procs())
	if !matrixEqual(fromEvents.Total, fromMetrics.Total) {
		t.Errorf("total matrices disagree:\nevents:  %+v\nmetrics: %+v", fromEvents.Total, fromMetrics.Total)
	}
	for _, phase := range fromEvents.PhaseNames() {
		if !matrixEqual(fromEvents.ByPhase[phase], fromMetrics.ByPhase[phase]) {
			t.Errorf("phase %q matrices disagree", phase)
		}
	}
	var buf bytes.Buffer
	WriteMatrix(&buf, fromEvents)
	if !strings.Contains(buf.String(), "exchange") {
		t.Errorf("rendered event matrix lacks the phase section:\n%s", buf.String())
	}
}

// matrixFromCounters reads the real backend's per-link counters
// (transport_link_* and transport_phase_link_*, see
// internal/transport/realmeters.go; bytes/8 = words) back into a P×P
// matrix.
func matrixFromCounters(t *testing.T, snap metrics.Snapshot, procs int) *CommMatrix {
	t.Helper()
	m := &CommMatrix{P: procs, Total: newCells(procs), ByPhase: map[string]*MatrixCells{}}
	for _, fam := range []struct {
		name          string
		phased, bytes bool
	}{
		{"transport_link_msgs_total", false, false},
		{"transport_link_bytes_total", false, true},
		{"transport_phase_link_msgs_total", true, false},
		{"transport_phase_link_bytes_total", true, true},
	} {
		f, ok := snap.Family(fam.name)
		if !ok {
			t.Fatalf("metric family %s missing from the snapshot", fam.name)
		}
		for _, child := range f.Children {
			labels, cells := child.LabelValues, m.Total
			if fam.phased {
				if m.ByPhase[labels[0]] == nil {
					m.ByPhase[labels[0]] = newCells(procs)
				}
				cells, labels = m.ByPhase[labels[0]], labels[1:]
			}
			src, err1 := strconv.Atoi(labels[0])
			dst, err2 := strconv.Atoi(labels[1])
			if err1 != nil || err2 != nil {
				t.Fatalf("%s has malformed link labels %v", fam.name, child.LabelValues)
			}
			if fam.bytes {
				cells.Words[src*procs+dst] += child.Value / 8
			} else {
				cells.Msgs[src*procs+dst] += child.Value
			}
		}
	}
	return m
}

func matrixEqual(a, b *MatrixCells) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Msgs) != len(b.Msgs) {
		return false
	}
	for i := range a.Msgs {
		if a.Msgs[i] != b.Msgs[i] || a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

func TestGanttUnitLabel(t *testing.T) {
	spans := [][]Span{{{Phase: "x", Start: 0, End: 100}}}
	var buf bytes.Buffer
	GanttUnit(&buf, spans, 40, "wall time")
	if !strings.Contains(buf.String(), "wall time 0 ..") {
		t.Errorf("GanttUnit did not label the axis: %s", buf.String())
	}
}
