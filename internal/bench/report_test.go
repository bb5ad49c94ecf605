package bench

import (
	"bytes"
	"testing"
)

// TestRunInstrumentedSamples runs one experiment twice on the same
// suite. The first run renders the same tables as a plain generation
// and its row counts the machine runs it executed; the second replays
// from the warm cache, so its row renders the same tables but counts no
// runs and carries no derived object.
func TestRunInstrumentedSamples(t *testing.T) {
	s := NewSuite(true, 1)
	s.Workers = 1
	tables, first, err := s.RunInstrumented("fig3")
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	RenderAll(&got, tables)
	RenderAll(&want, NewSuite(true, 1).Fig3())
	if got.String() != want.String() {
		t.Fatal("RunInstrumented rendered different tables than Fig3")
	}
	runs := int64(s.cache.len())
	if first.ID != "fig3" || first.Tables != len(tables) || first.MachineRuns == 0 || first.MachineRuns != runs {
		t.Fatalf("first fig3 row %+v for %d tables and %d measured points", first, len(tables), runs)
	}

	tables2, second, err := s.RunInstrumented("fig3")
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	RenderAll(&again, tables2)
	if again.String() != got.String() {
		t.Fatal("warm-cache replay rendered different tables than the first run")
	}
	if second.MachineRuns != 0 || second.VirtualMS != 0 || second.Derived != nil {
		t.Fatalf("replay row %+v: want no machine runs, no virtual time and no derived object", second)
	}
	if second.Tables != first.Tables || second.Rows != first.Rows {
		t.Fatalf("replay row counts %d tables/%d rows, first run %d/%d",
			second.Tables, second.Rows, first.Tables, first.Rows)
	}
	if int64(s.cache.len()) != runs {
		t.Fatal("warm-cache replay executed machines")
	}
}

// TestSumPerfWallSumsMedians pins the total line: counters and virtual
// time are summed, and each derived per-run mean becomes the mean
// weighted by machine runs, so replay rows that ran nothing do not
// dilute it.
func TestSumPerfWallSumsMedians(t *testing.T) {
	a := ExperimentPerf{ID: "a", Tables: 1, Rows: 3, MachineRuns: 2, VirtualMS: 1.5,
		Derived: map[string]float64{"imbalance": 1}}
	b := ExperimentPerf{ID: "b", Tables: 2, Rows: 4, MachineRuns: 6, VirtualMS: 2.5,
		Derived: map[string]float64{"imbalance": 3}}
	replay := ExperimentPerf{ID: "replay", Tables: 1, Rows: 5}

	total := SumPerf([]ExperimentPerf{a, b, replay})
	if total.ID != "all" || total.Tables != 4 || total.Rows != 12 || total.MachineRuns != 8 || total.VirtualMS != 4 {
		t.Fatalf("total %+v does not sum the rows", total)
	}
	if got := total.Derived["imbalance"]; got != 2.5 {
		t.Fatalf("total derived imbalance = %v, want the run-weighted mean 2.5", got)
	}
	if len(total.Derived) != 1 {
		t.Fatalf("total derived %v, want only imbalance", total.Derived)
	}

	if idle := SumPerf([]ExperimentPerf{replay}); idle.Derived != nil || idle.Rows != 5 {
		t.Fatalf("total of a replay-only report %+v: want its rows and no derived object", idle)
	}
}
