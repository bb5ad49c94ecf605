package trace

import (
	"bytes"
	"strings"
	"testing"

	"packunpack/internal/sim"
)

// simCapture runs body on a fresh emulator built from cfg, with a
// RetainSink on its Sink (teed with cfg.Sink when one is set), and
// returns the capture: the span timelines are derived from the events.
func simCapture(t *testing.T, cfg sim.Config, body func(p *sim.Proc)) *Capture {
	t.Helper()
	rs := NewRetainSink(cfg.Procs)
	cfg.Sink = NewTee(rs, cfg.Sink)
	m := sim.MustNew(cfg)
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	return NewCapture(m, rs)
}

func recordedRun(t *testing.T) *Capture {
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

func TestSpansRecorded(t *testing.T) {
	spans := recordedRun(t).Spans
	if len(spans) != 2 {
		t.Fatalf("want 2 timelines, got %d", len(spans))
	}
	for rank, row := range spans {
		if len(row) == 0 {
			t.Fatalf("rank %d has no spans", rank)
		}
		prevEnd := 0.0
		for _, s := range row {
			if s.End <= s.Start {
				t.Fatalf("rank %d: empty or reversed span %+v", rank, s)
			}
			if s.Start < prevEnd {
				t.Fatalf("rank %d: overlapping spans", rank)
			}
			prevEnd = s.End
		}
	}
	// Rank 0: comp [0,20), prs comm [20,35), comp [35,45).
	r0 := spans[0]
	if len(r0) != 3 || r0[0].Comm || !r0[1].Comm || r0[1].Phase != "prs" || r0[2].End != 45 {
		t.Fatalf("rank 0 timeline unexpected: %+v", r0)
	}
}

func TestSpansMergeContiguous(t *testing.T) {
	c := simCapture(t, sim.Config{Procs: 1, Params: sim.Params{Delta: 1}}, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Charge(1)
		}
	})
	row := c.Spans[0]
	if len(row) != 1 || row[0].End != 100 {
		t.Fatalf("contiguous charges should merge to one span, got %+v", row)
	}
}

func TestGanttRendering(t *testing.T) {
	c := recordedRun(t)
	var buf bytes.Buffer
	Gantt(&buf, c.Spans, 40)
	out := buf.String()
	for _, want := range []string{"p0", "p1", "legend", "C", "p"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 rows + legend.
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	Gantt(&buf, nil, 10)
	if !strings.Contains(buf.String(), "no recorded spans") {
		t.Fatalf("empty gantt message missing: %s", buf.String())
	}
}

func TestGanttDefaultWidth(t *testing.T) {
	c := recordedRun(t)
	var buf bytes.Buffer
	Gantt(&buf, c.Spans, 0)
	if !strings.Contains(buf.String(), "p0") {
		t.Fatal("default width render failed")
	}
}

func TestSummary(t *testing.T) {
	c := recordedRun(t)
	var buf bytes.Buffer
	Summary(&buf, c.Stats)
	out := buf.String()
	for _, want := range []string{"phase", "default", "prs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestGlyphs(t *testing.T) {
	cases := map[[2]string]byte{
		{"default", "comp"}: 'C',
		{"prs", "comm"}:     'p',
		{"m2m", "comp"}:     'M',
		{"redist", "comm"}:  'r',
		{"other", "comp"}:   'C',
	}
	for k, want := range cases {
		if got := glyphFor(k[0], k[1] == "comm"); got != want {
			t.Errorf("glyphFor(%s,%s) = %c, want %c", k[0], k[1], got, want)
		}
	}
}
