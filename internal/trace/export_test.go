package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"packunpack/internal/hpf"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedRun executes a deterministic two-processor exchange with the
// event stream retained.
func tracedRun(t *testing.T) *Capture {
	t.Helper()
	return simCapture(t, sim.Config{Procs: 2, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}}, func(p *sim.Proc) {
		p.Charge(20)
		prev := p.SetPhase("prs")
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 5)
		} else {
			p.Recv(0, 1)
		}
		p.SetPhase(prev)
		p.Charge(10)
	})
}

// packCapture runs a real CMS PACK on 4 processors with tracing, the
// shape the CLI exercises.
func packCapture(t *testing.T) *Capture {
	t.Helper()
	layout, err := hpf.ParseDist("CYCLIC(4) ONTO 4", 256)
	if err != nil {
		t.Fatal(err)
	}
	gen := mask.NewRandom(0.5, 1, 256)
	return simCapture(t, sim.Config{Procs: 4, Params: sim.CM5Params()}, func(p *sim.Proc) {
		lm := mask.FillLocal(layout, p.Rank(), gen)
		a := make([]int, layout.LocalSize())
		for i := range a {
			a[i] = p.Rank()*layout.LocalSize() + i
		}
		if _, err := pack.Pack(p, layout, a, lm, pack.Options{Scheme: pack.SchemeCMS}); err != nil {
			panic(err)
		}
	})
}

func TestChromeGolden(t *testing.T) {
	c := tracedRun(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, c); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export differs from golden file (stable output is the cooperative-mode determinism contract; regenerate with -update if the change is intended)\ngot:\n%s", buf.String())
	}
}

// TestChromeStructure validates the export as trace-event JSON the way
// Perfetto's loader would: a traceEvents array whose entries carry
// name/ph/ts/pid/tid, every flow start has a matching finish with the
// same id, and slice durations are non-negative.
func TestChromeStructure(t *testing.T) {
	c := packCapture(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, c); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  float64  `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
			ID   string   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	flowStart := map[string]int{}
	flowEnd := map[string]int{}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		switch e.Ph {
		case "X":
			slices++
			if e.Dur < 0 {
				t.Fatalf("negative slice duration: %+v", e)
			}
		case "s":
			flowStart[e.ID]++
		case "f":
			flowEnd[e.ID]++
		}
	}
	if slices == 0 {
		t.Fatal("no slices in export")
	}
	if len(flowStart) == 0 {
		t.Fatal("no flow arrows in export")
	}
	for id, n := range flowStart {
		if flowEnd[id] != n {
			t.Fatalf("flow %s has %d starts but %d finishes", id, n, flowEnd[id])
		}
	}
	for id := range flowEnd {
		if flowStart[id] == 0 {
			t.Fatalf("flow %s finishes without a start", id)
		}
	}
}

// TestMatrixTotals reconciles a capture's event-built matrix with the
// machine's own Stats — in total, per sender row, and across phases —
// for an emulator PACK and a real-backend exchange.
func TestMatrixTotals(t *testing.T) {
	for _, in := range []struct {
		name, phase string
		c           *Capture
	}{
		{"sim pack", "m2m", packCapture(t)},
		{"real exchange", "exchange", runTracedReal(t, 4)},
	} {
		c := in.c
		m := BuildMatrix(c)
		gotMsgs, gotWords := m.Total.Totals()
		var wantMsgs, wantWords int64
		for _, s := range c.Stats {
			wantMsgs += s.MsgsSent
			wantWords += s.WordsSent
		}
		if gotMsgs != wantMsgs || gotWords != wantWords {
			t.Fatalf("%s: matrix totals %d msgs / %d words, stats say %d / %d", in.name, gotMsgs, gotWords, wantMsgs, wantWords)
		}
		// Per-phase cells partition the total.
		var phaseMsgs, phaseWords int64
		for _, cells := range m.ByPhase {
			n, w := cells.Totals()
			phaseMsgs += n
			phaseWords += w
		}
		if phaseMsgs != wantMsgs || phaseWords != wantWords {
			t.Fatalf("%s: per-phase sums %d msgs / %d words != total %d / %d", in.name, phaseMsgs, phaseWords, wantMsgs, wantWords)
		}
		// Row sums must match each sender's own counters.
		for src, s := range c.Stats {
			var row, rowWords int64
			for dst := 0; dst < m.P; dst++ {
				row += m.Total.Msgs[src*m.P+dst]
				rowWords += m.Total.Words[src*m.P+dst]
			}
			if row != s.MsgsSent || rowWords != s.WordsSent {
				t.Fatalf("%s: row %d sums %d msgs / %d words, stats say %d / %d", in.name, src, row, rowWords, s.MsgsSent, s.WordsSent)
			}
		}

		var buf bytes.Buffer
		WriteMatrix(&buf, m)
		out := buf.String()
		for _, want := range []string{"total:", in.phase, "grand total:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: matrix rendering missing %q:\n%s", in.name, want, out)
			}
		}
	}
}

func TestMatrixHeatmapLargeP(t *testing.T) {
	c := simCapture(t, sim.Config{Procs: 32, Params: sim.Params{Tau: 1}}, func(p *sim.Proc) {
		next := (p.Rank() + 1) % p.NProcs()
		p.Send(next, 0, nil, p.Rank())
		p.Recv((p.Rank()+p.NProcs()-1)%p.NProcs(), 0)
	})
	var buf bytes.Buffer
	WriteMatrix(&buf, BuildMatrix(c))
	if !strings.Contains(buf.String(), "heatmap") {
		t.Fatalf("P=32 matrix should render as heatmap:\n%s", buf.String())
	}
}

// TestCriticalPathChain builds a two-processor chain with a known
// makespan and checks the analyzer reports exactly the expected hops
// and accounts for 100% of the makespan.
//
// Timeline (Tau=10, Mu=1, Delta=1):
//
//	p0: comp [0,20) — send 5 words, done at 35 — comp [35,45), clock 45
//	p1: comp [0,5) — blocks at 5, wakes at 35 — comp [35,95), clock 95
//
// Makespan 95 = p1 tail (60) + message release at 35 determined by p0:
// segment p0 [0,35] then p1 [35,95].
func TestCriticalPathChain(t *testing.T) {
	c := simCapture(t, sim.Config{Procs: 2, Params: sim.Params{Tau: 10, Mu: 1, Delta: 1}}, func(p *sim.Proc) {
		if p.Rank() == 0 {
			p.Charge(20)
			p.Send(1, 9, nil, 5)
			p.Charge(10)
		} else {
			p.Charge(5)
			p.Recv(0, 9)
			p.Charge(60)
		}
	})
	r, err := CriticalPath(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 95 || r.EndRank != 1 {
		t.Fatalf("makespan %v on p%d, want 95 on p1", r.Makespan, r.EndRank)
	}
	if len(r.Segments) != 2 {
		t.Fatalf("want 2 segments, got %+v", r.Segments)
	}
	s0, s1 := r.Segments[0], r.Segments[1]
	if s0.Rank != 0 || s0.Start != 0 || s0.End != 35 || s0.MsgFrom != -1 {
		t.Fatalf("first segment wrong: %+v", s0)
	}
	if s1.Rank != 1 || s1.Start != 35 || s1.End != 95 || s1.MsgFrom != 0 || s1.MsgWords != 5 {
		t.Fatalf("second segment wrong: %+v", s1)
	}
	if r.Msgs != 1 || r.Words != 5 {
		t.Fatalf("path traffic %d msgs %d words, want 1/5", r.Msgs, r.Words)
	}
	// 100% accounting: per-phase attribution sums to the makespan.
	var total float64
	for _, v := range r.Comp {
		total += v
	}
	for _, v := range r.Comm {
		total += v
	}
	if math.Abs(total-r.Makespan) > 1e-9 {
		t.Fatalf("path accounts for %v of makespan %v", total, r.Makespan)
	}
	if r.Comp["default"] != 80 || r.Comm["default"] != 15 {
		t.Fatalf("attribution wrong: comp %v comm %v", r.Comp, r.Comm)
	}

	var buf bytes.Buffer
	WriteCritPath(&buf, r)
	out := buf.String()
	for _, want := range []string{"makespan 0.095 ms", "msg from p0 tag 9, 5 words", "100.0% of makespan accounted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("critpath rendering missing %q:\n%s", want, out)
		}
	}
}

// TestCriticalPathPack checks the accounting identity on a real PACK
// run: segments partition [0, makespan] and phase attribution sums to
// the makespan.
func TestCriticalPathPack(t *testing.T) {
	checkCritPath(t, "pack", packCapture(t))
}

func TestCriticalPathNeedsEvents(t *testing.T) {
	// The retain sink is never attached, so the capture has no events.
	m := sim.MustNew(sim.Config{Procs: 1, Params: sim.Params{Delta: 1}})
	if err := m.Run(func(p *sim.Proc) { p.Charge(5) }); err != nil {
		t.Fatal(err)
	}
	if _, err := CriticalPath(NewCapture(m, NewRetainSink(1))); err == nil {
		t.Fatal("want an error for a capture without events")
	}
}

func TestGanttZeroDurationHint(t *testing.T) {
	// Spans recorded but the run cost nothing: the hint must not blame
	// a missing RetainSink.
	spans := [][]Span{{{Phase: "default", Start: 0, End: 0}}}
	var buf bytes.Buffer
	Gantt(&buf, spans, 10)
	out := buf.String()
	if !strings.Contains(out, "zero duration") || strings.Contains(out, "RetainSink") {
		t.Fatalf("zero-duration hint wrong: %s", out)
	}
}

func TestGanttHugeWidthClamped(t *testing.T) {
	c := simCapture(t, sim.Config{Procs: 1, Params: sim.Params{Delta: 1}}, func(p *sim.Proc) { p.Charge(3) })
	var buf bytes.Buffer
	Gantt(&buf, c.Spans, 1<<30)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header+row+legend, got:\n%s", buf.String())
	}
	if n := len(lines[1]); n > 4200 {
		t.Fatalf("row not clamped: %d chars", n)
	}
}
