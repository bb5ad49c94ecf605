package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"packunpack/internal/sim"
)

// TestShouldDumpFlight pins the trigger classification: deadlocks and
// fault budgets dump, clean runs and root-cause panics do not.
func TestShouldDumpFlight(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("boom"), false},
		{"deadlock sentinel", sim.ErrDeadlock, true},
		{"wrapped deadlock", fmt.Errorf("context: %w", sim.ErrDeadlock), true},
		{"fault budget", &sim.FaultBudgetError{Rank: 1, Dst: 2, Tag: 3, Attempts: 4}, true},
	}
	for _, tc := range cases {
		if got := ShouldDumpFlight(tc.err); got != tc.want {
			t.Errorf("%s: ShouldDumpFlight = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFlightDumpOnDeadlock runs a machine into a structural deadlock
// with a flight recorder attached and verifies the dump: a valid
// Chrome trace-event JSON file plus a text summary naming the parked
// receive.
func TestFlightDumpOnDeadlock(t *testing.T) {
	fr := sim.MustNewFlightRecorder(3, 64)
	m := sim.MustNew(sim.Config{
		Procs:  3,
		Params: sim.Params{Tau: 10, Mu: 1, Delta: 1},
		Flight: fr,
	})
	err := m.Run(func(p *sim.Proc) {
		p.SetPhase("warmup")
		next := (p.Rank() + 1) % p.NProcs()
		p.Send(next, 1, nil, 2)
		p.Recv((p.Rank()+p.NProcs()-1)%p.NProcs(), 1)
		p.SetPhase("wedge")
		if p.Rank() == 0 {
			p.Recv(2, 77) // rank 2 never sends tag 77: structural deadlock
		}
	})
	if !ShouldDumpFlight(err) {
		t.Fatalf("deadlocked run err %v did not classify as dumpable", err)
	}

	dir := t.TempDir()
	c := FlightCapture(m.Procs(), m.Params(), m.Stats(), fr)
	tracePath, summaryPath, derr := DumpFlight(dir, "wedge test/p3", c, err)
	if derr != nil {
		t.Fatalf("DumpFlight: %v", derr)
	}
	if !strings.HasSuffix(tracePath, "wedge-test-p3.flight.trace.json") {
		t.Fatalf("trace path %q not sanitized as expected", tracePath)
	}

	raw, rerr := os.ReadFile(tracePath)
	if rerr != nil {
		t.Fatalf("read dump: %v", rerr)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if jerr := json.Unmarshal(raw, &chrome); jerr != nil {
		t.Fatalf("flight trace is not valid Chrome JSON: %v", jerr)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("flight trace has no events")
	}

	// The dump must be openable the way packtrace -open opens it.
	var digest strings.Builder
	if serr := SummarizeChrome(&digest, strings.NewReader(string(raw))); serr != nil {
		t.Fatalf("SummarizeChrome on flight dump: %v", serr)
	}
	if !strings.Contains(digest.String(), "3 tracks") {
		t.Fatalf("flight digest does not show 3 tracks:\n%s", digest.String())
	}

	sum, rerr := os.ReadFile(summaryPath)
	if rerr != nil {
		t.Fatalf("read summary: %v", rerr)
	}
	text := string(sum)
	for _, want := range []string{
		"flight recorder post-mortem (3 ranks)",
		"reason: sim: deadlock",
		"parked waiting for (src=2, tag=77)",
		`phase "wedge"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
}
