package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
)

// metricsRun is a small deterministic point used across the derived
// metric tests: big enough to exercise every phase of the CMS scheme,
// small enough to run in milliseconds.
func metricsRun() Run {
	return Run{
		Layout: dist.MustLayout(dist.Dim{N: 1024, P: 4, W: 4}),
		Gen:    mask.NewRandom(0.5, 1, 1024),
		Opt:    pack.Options{Scheme: pack.SchemeCMS},
		Mode:   ModePack,
	}
}

// TestDerivedMetricsSanity checks the registry's invariants on an
// ordinary (untraced) run: every machine execution carries the basic
// derived metrics, each inside its mathematical range, and the
// critical-path metrics stay absent without a trace.
func TestDerivedMetricsSanity(t *testing.T) {
	met, err := metricsRun().Execute()
	if err != nil {
		t.Fatal(err)
	}
	d := met.Derived
	if d == nil {
		t.Fatal("untraced Execute produced no derived metrics")
	}
	if v := d["idle_frac"]; v < 0 || v >= 1 {
		t.Errorf("idle_frac = %v, want [0,1)", v)
	}
	if v := d["imbalance"]; v < 1 {
		t.Errorf("imbalance = %v, want >= 1", v)
	}
	if v := d["comm_frac"]; v <= 0 || v > 1 {
		t.Errorf("comm_frac = %v, want (0,1]", v)
	}
	for _, name := range []string{"critpath_words", "critpath_msgs", "critpath_hops"} {
		if _, ok := d[name]; ok {
			t.Errorf("untraced run carries %s; critical-path metrics need a trace", name)
		}
	}
	var shares int
	for name := range d {
		if strings.HasPrefix(name, "comm_share/") {
			shares++
		}
	}
	if shares == 0 {
		t.Error("no comm_share/<phase> metrics; a CMS pack has at least the m2m phase")
	}
}

// TestExecuteTraceMetrics checks the traced path: the capture comes
// back with events, the critical-path metrics join Derived, and — the
// observability contract — tracing changes no virtual measurement: the
// raw metrics and every shared derived name match the untraced run
// exactly.
func TestExecuteTraceMetrics(t *testing.T) {
	r := metricsRun()
	plain, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	met, capture, err := r.ExecuteTrace()
	if err != nil {
		t.Fatal(err)
	}
	if capture == nil || !capture.HasEvents() {
		t.Fatal("ExecuteTrace returned no event capture")
	}

	if met.TotalMS != plain.TotalMS || met.LocalMS != plain.LocalMS ||
		met.PRSMS != plain.PRSMS || met.M2MMS != plain.M2MMS ||
		met.Words != plain.Words || met.Msgs != plain.Msgs {
		t.Errorf("tracing changed virtual metrics:\n traced %+v\n plain  %+v", met, plain)
	}
	for name, want := range plain.Derived {
		if got, ok := met.Derived[name]; !ok || got != want {
			t.Errorf("derived %q: traced %v, untraced %v", name, met.Derived[name], want)
		}
	}
	if v, ok := met.Derived["critpath_hops"]; !ok || v < 1 {
		t.Errorf("critpath_hops = %v (present=%v), want >= 1 on a traced run", v, ok)
	}
	if v := met.Derived["critpath_msgs"]; v < 1 {
		t.Errorf("critpath_msgs = %v, want >= 1: four CMS ranks cannot finish without a blocking message", v)
	}
}

// TestTraceDirDumpsParse runs the quick sweep with a TraceDir and
// checks the engine dumped one parseable Chrome trace per machine run,
// and that enabling tracing did not perturb the rendered tables.
func TestTraceDirDumpsParse(t *testing.T) {
	dir := t.TempDir()

	plain := NewSuite(true, 1)
	plain.Workers = 1
	want := renderSuite(plain)

	s := NewSuite(true, 1)
	s.Workers = 1
	s.TraceDir = dir
	tables, rows := instrumentAll(t, s)
	var got strings.Builder
	for _, id := range s.ExperimentIDs() {
		RenderAll(&got, tables[id])
	}
	if got.String() != want {
		t.Fatal("tracing the sweep changed the rendered tables")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs int64
	for _, row := range rows {
		runs += row.MachineRuns
	}
	if int64(len(entries)) != runs {
		t.Fatalf("dumped %d trace files for %d machine runs", len(entries), runs)
	}
	for i, e := range entries {
		if i >= 5 { // parsing a sample is enough; all come from one writer
			break
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s does not parse: %v", e.Name(), err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s has no trace events", e.Name())
		}
	}
}

// TestPerfReportDerived checks the schema marker and the derived
// objects of the report rows: fig3's row carries the basic derived
// metrics; fig4 reuses fig3's cached runs, so its row counts none and
// carries no derived object; and the total weights each row's derived
// means by its machine runs.
func TestPerfReportDerived(t *testing.T) {
	if PerfSchema != "packbench-perf/v8" {
		t.Fatalf("PerfSchema = %q, want packbench-perf/v8", PerfSchema)
	}

	s := NewSuite(true, 1)
	s.Workers = 1
	_, fig3, err := s.RunInstrumented("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"idle_frac", "imbalance", "comm_frac"} {
		if _, ok := fig3.Derived[name]; !ok {
			t.Errorf("fig3 row lacks derived %q", name)
		}
	}
	_, fig4, err := s.RunInstrumented("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if fig4.MachineRuns != 0 || fig4.Derived != nil || fig4.Rows == 0 {
		t.Fatalf("fig4 row %+v: want rendered rows, no machine runs and no derived object", fig4)
	}
	_, prs, err := s.RunInstrumented("prs")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunInstrumented("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}

	perfs := []ExperimentPerf{fig3, fig4, prs}
	total := SumPerf(perfs)
	for name, v := range fig3.Derived {
		want := (v*float64(fig3.MachineRuns) + prs.Derived[name]*float64(prs.MachineRuns)) / float64(total.MachineRuns)
		if got := total.Derived[name]; got != want {
			t.Errorf("total derived %q = %v, want the run-weighted mean %v", name, got, want)
		}
	}

	// The report must round-trip through JSON with the derived object
	// intact (the -json consumers parse it blind).
	data, err := json.Marshal(PerfReport{Schema: PerfSchema, Experiments: perfs, Total: total})
	if err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != PerfSchema {
		t.Fatalf("schema round-trip: %q", back.Schema)
	}
	if got := back.Experiments[0].Derived["imbalance"]; got != fig3.Derived["imbalance"] {
		t.Errorf("derived imbalance round-trip: %v want %v", got, fig3.Derived["imbalance"])
	}
}

// TestTraceFileNames pins the dump naming scheme: sanitized stem, hash
// suffix, and distinct names for keys that sanitize identically.
func TestTraceFileNames(t *testing.T) {
	a := traceFileName("layout|gen|CMS")
	b := traceFileName("layout|gen;CMS")
	if a == b {
		t.Fatalf("keys differing only in punctuation collide: %s", a)
	}
	if !strings.HasSuffix(a, ".trace.json") {
		t.Fatalf("unexpected trace file name %q", a)
	}
	long := traceFileName(strings.Repeat("x", 500))
	if len(long) > 150 {
		t.Fatalf("trace file name not truncated: %d chars", len(long))
	}
}
