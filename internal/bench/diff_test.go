package bench

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func loadCommitted(t *testing.T, name string) *PerfReport {
	t.Helper()
	r, err := LoadPerfReport(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// TestLoadCommittedBaselines is the backward-compat satellite: every
// committed BENCH_*.json (schema v1 through v3) must keep parsing
// through the v4 loader.
func TestLoadCommittedBaselines(t *testing.T) {
	cases := []struct {
		file   string
		schema string
	}{
		{"BENCH_pr1.json", "packbench-perf/v1"},
		{"BENCH_pr2.json", "packbench-perf/v2"},
		{"BENCH_pr3.json", "packbench-perf/v3"},
	}
	for _, c := range cases {
		r := loadCommitted(t, c.file)
		if r.Schema != c.schema {
			t.Errorf("%s: schema %q, want %q", c.file, r.Schema, c.schema)
		}
		if v, err := SchemaVersion(r.Schema); err != nil || v < 1 || v > 4 {
			t.Errorf("%s: version %d err %v", c.file, v, err)
		}
		if r.Total.VirtualMS <= 0 {
			t.Errorf("%s: total virtual_ms = %v", c.file, r.Total.VirtualMS)
		}
		for _, e := range r.Experiments {
			if e.ID == "" {
				t.Errorf("%s: row with empty id", c.file)
			}
		}
	}
}

func TestSchemaVersion(t *testing.T) {
	if v, err := SchemaVersion("packbench-perf/v4"); err != nil || v != 4 {
		t.Fatalf("v4: %d %v", v, err)
	}
	for _, bad := range []string{"", "perf/v1", "packbench-perf/", "packbench-perf/vx", "packbench-perf/v0"} {
		if _, err := SchemaVersion(bad); err == nil {
			t.Errorf("SchemaVersion(%q) did not fail", bad)
		}
	}
}

// TestDiffPr2VsPr3Exact is the acceptance check: BENCH_pr2 and
// BENCH_pr3 carry identical virtual metrics, so the comparator must
// report zero virtual mismatches while still producing a wall table.
func TestDiffPr2VsPr3Exact(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr2.json")
	cur := loadCommitted(t, "BENCH_pr3.json")
	d := DiffReports(old, cur, DiffOptions{})
	if vm := d.VirtualMismatches(); vm != 0 {
		for _, r := range d.Rows {
			if !r.VirtualOK() {
				t.Logf("drift: %s: %s", r.ID, r.virtualCell())
			}
		}
		t.Fatalf("pr2 vs pr3: %d virtual mismatches, want 0", vm)
	}
	if len(d.Rows) == 0 {
		t.Fatal("no rows compared")
	}
	var md, tsv bytes.Buffer
	d.WriteMarkdown(&md)
	d.WriteTSV(&tsv)
	if !strings.Contains(md.String(), "exact match") {
		t.Fatalf("markdown missing exact-match banner:\n%s", md.String())
	}
	if got := strings.Count(tsv.String(), "\n"); got != len(d.Rows)+1 {
		t.Fatalf("tsv has %d lines for %d rows", got, len(d.Rows))
	}
	// Both files lack raw samples, so no p-values anywhere.
	for _, r := range d.Rows {
		if !math.IsNaN(r.P) {
			t.Fatalf("%s: p-value computed without samples", r.ID)
		}
	}
}

// TestDiffPerturbedVirtualFails feeds the committed fixture whose
// fig3/prefetch virtual_ms was nudged by 1e-9: the exact rule must
// flag it (packdiff exits 1 on this).
func TestDiffPerturbedVirtualFails(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr3.json")
	cur, err := LoadPerfReport(filepath.Join("testdata", "BENCH_pr3_perturbed.json"))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffReports(old, cur, DiffOptions{})
	if vm := d.VirtualMismatches(); vm == 0 {
		t.Fatal("perturbed virtual_ms not detected")
	}
	var hit bool
	for _, r := range d.Rows {
		if r.ID == "fig3/prefetch" {
			hit = true
			if r.VirtualMatch {
				t.Fatal("fig3/prefetch should mismatch")
			}
		} else if r.ID != "all" && !r.VirtualOK() {
			t.Fatalf("unexpected drift on %s", r.ID)
		}
	}
	if !hit {
		t.Fatal("fig3/prefetch row missing")
	}
	var md bytes.Buffer
	d.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "DRIFT") {
		t.Fatal("markdown missing DRIFT marker")
	}
}

// TestDiffDerivedDriftFails checks the second exact class: a drifted
// derived mean must fail even when virtual_ms agrees.
func TestDiffDerivedDriftFails(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr3.json")
	cur := loadCommitted(t, "BENCH_pr3.json")
	for i, e := range cur.Experiments {
		if len(e.Derived) > 0 {
			m := make(map[string]float64, len(e.Derived))
			for k, v := range e.Derived {
				m[k] = v
			}
			for k := range m {
				m[k] += 1e-12
				break
			}
			cur.Experiments[i].Derived = m
			break
		}
	}
	d := DiffReports(old, cur, DiffOptions{})
	if d.VirtualMismatches() == 0 {
		t.Fatal("derived drift not detected")
	}
}

// TestDiffWallSignificance exercises the noisy half: identical samples
// are never flagged; a large, clearly-significant regression is.
func TestDiffWallSignificance(t *testing.T) {
	mk := func(samples []float64) *PerfReport {
		row := ExperimentPerf{ID: "x", VirtualMS: 10}
		row.sealSamples(samples)
		r := &PerfReport{Schema: PerfSchema, Experiments: []ExperimentPerf{row}}
		r.Total = SumPerf(r.Experiments)
		r.Total.VirtualMS = 10
		return r
	}
	base := mk([]float64{10, 10.1, 9.9, 10.05, 9.95})

	same := DiffReports(base, mk([]float64{10.02, 9.98, 10.06, 9.94, 10.01}), DiffOptions{})
	for _, r := range same.Rows {
		if r.WallFlagged {
			t.Fatalf("noise flagged as regression: %+v", r)
		}
	}

	slow := DiffReports(base, mk([]float64{20, 20.1, 19.9, 20.05, 19.95}), DiffOptions{})
	var flagged bool
	for _, r := range slow.Rows {
		if r.ID == "x" {
			if math.IsNaN(r.P) {
				t.Fatal("sampled rows must get a p-value")
			}
			flagged = r.WallFlagged && r.WallDelta > 0
		}
	}
	if !flagged {
		t.Fatal("2x wall regression not flagged")
	}
	if slow.WallRegressions() == 0 {
		t.Fatal("WallRegressions did not count the x row")
	}

	// Same 2x delta but wildly overlapping samples: the significance
	// test must hold fire.
	noisy := DiffReports(
		mk([]float64{5, 30, 8, 22, 11}),
		mk([]float64{28, 6, 24, 9, 21}), DiffOptions{})
	for _, r := range noisy.Rows {
		if r.ID == "x" && r.WallFlagged {
			t.Fatalf("overlapping noisy samples flagged: p=%v delta=%v", r.P, r.WallDelta)
		}
	}
}

// TestDiffRowAccounting covers added/removed ids and structure drift.
func TestDiffRowAccounting(t *testing.T) {
	old := &PerfReport{Schema: "packbench-perf/v3", Experiments: []ExperimentPerf{
		{ID: "a", WallMS: 1, VirtualMS: 5, Rows: 4, MachineRuns: 2},
		{ID: "gone", WallMS: 1},
	}, Total: ExperimentPerf{ID: "all", VirtualMS: 5}}
	cur := &PerfReport{Schema: PerfSchema, Experiments: []ExperimentPerf{
		{ID: "a", WallMS: 1, VirtualMS: 5, Rows: 6, MachineRuns: 3},
		{ID: "fresh", WallMS: 1},
	}, Total: ExperimentPerf{ID: "all", VirtualMS: 5}}
	d := DiffReports(old, cur, DiffOptions{})
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "gone" {
		t.Fatalf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "fresh" {
		t.Fatalf("OnlyNew = %v", d.OnlyNew)
	}
	if d.VirtualMismatches() != 0 {
		t.Fatal("matching rows misreported")
	}
	for _, r := range d.Rows {
		if r.ID == "a" && len(r.StructureDrift) != 2 {
			t.Fatalf("structure drift = %v", r.StructureDrift)
		}
	}
}

// TestDiffSchemaSkewV5VsV4 is the schema-skew satellite: a v5 report
// (extra planrepeat experiment, plan_repeat object) diffed against a
// v4 baseline must warn-and-skip the new fields and the aggregate
// total — and still compare every shared experiment row exactly.
func TestDiffSchemaSkewV5VsV4(t *testing.T) {
	old := &PerfReport{Schema: "packbench-perf/v4", Experiments: []ExperimentPerf{
		{ID: "fig3", WallMS: 1, VirtualMS: 5},
	}, Total: ExperimentPerf{ID: "all", WallMS: 1, VirtualMS: 5}}
	cur := &PerfReport{Schema: "packbench-perf/v5", Experiments: []ExperimentPerf{
		{ID: "fig3", WallMS: 1, VirtualMS: 5},
		{ID: "planrepeat", WallMS: 2, VirtualMS: 7},
	},
		Total:      ExperimentPerf{ID: "all", WallMS: 3, VirtualMS: 12},
		PlanRepeat: &PlanRepeatPerf{Calls: 120, HitRate: 0.9917, WallSpeedup: 1.5},
	}

	d := DiffReports(old, cur, DiffOptions{})
	if vm := d.VirtualMismatches(); vm != 0 {
		t.Fatalf("schema skew failed the exact gate: %d mismatches", vm)
	}
	var total RowDiff
	var found bool
	for _, r := range d.Rows {
		if r.ID == "all" {
			total, found = r, true
		}
	}
	if !found {
		t.Fatal("total row missing")
	}
	if !total.Incomparable || total.VirtualMatch {
		t.Fatalf("total row not skipped: %+v", total)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "planrepeat" {
		t.Fatalf("OnlyNew = %v", d.OnlyNew)
	}
	joined := strings.Join(d.SkewNotes, "\n")
	for _, want := range []string{"grids differ", "plan_repeat", "schema skew"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("skew notes missing %q:\n%s", want, joined)
		}
	}

	var md, tsv bytes.Buffer
	d.WriteMarkdown(&md)
	d.WriteTSV(&tsv)
	if !strings.Contains(md.String(), "skipped (grids differ)") {
		t.Fatalf("markdown missing skipped total:\n%s", md.String())
	}
	if !strings.Contains(md.String(), "**skew**") {
		t.Fatalf("markdown missing skew bullets:\n%s", md.String())
	}
	if !strings.Contains(tsv.String(), "\tincomparable\t") {
		t.Fatalf("tsv missing incomparable column:\n%s", tsv.String())
	}

	// A drifted shared row must still fail even amid skew.
	cur.Experiments[0].VirtualMS += 1e-9
	if DiffReports(old, cur, DiffOptions{}).VirtualMismatches() == 0 {
		t.Fatal("shared-row drift masked by schema skew")
	}

	// Same grid, same schema: the total stays exact-compared.
	exact := DiffReports(old, old, DiffOptions{})
	for _, r := range exact.Rows {
		if r.Incomparable {
			t.Fatalf("same-grid row %s marked incomparable", r.ID)
		}
	}
	if len(exact.SkewNotes) != 0 {
		t.Fatalf("same-schema diff has skew notes: %v", exact.SkewNotes)
	}
}

func TestLoadPerfReportRejectsGarbage(t *testing.T) {
	if _, err := LoadPerfReport(filepath.Join("testdata", "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadPerfReport(filepath.Join("..", "..", "go.mod")); err == nil {
		t.Fatal("non-JSON accepted")
	}
}

// TestDiffServiceObject covers the v7 service soak object: exact
// comparison when both reports carry the same configuration, drift
// detection on any deterministic field, and warn-and-skip on presence
// or configuration mismatches.
func TestDiffServiceObject(t *testing.T) {
	svc := func() *ServicePerf {
		return &ServicePerf{
			Seed: 1, Requests: 1_000_000, Admitted: 999_990, Overloaded: 10,
			Workers: 8, Queue: 256, RatePerSec: 3749.6, DurationUS: 266_000_000,
			ThroughputRPS: 3759.4, P50US: 1279, P99US: 5119, P999US: 6399,
			SumUS: 1_634_823_001,
			Classes: []ServiceClassPerf{
				{Name: "s4-pack-sss", Weight: 4, ServiceUS: 762, Arrivals: 250_000},
				{Name: "l8-unpack-sss", Weight: 1, ServiceUS: 4813, Arrivals: 62_000},
			},
		}
	}
	base := func(s *ServicePerf) *PerfReport {
		return &PerfReport{Schema: PerfSchema, Experiments: []ExperimentPerf{
			{ID: "fig3", WallMS: 1, VirtualMS: 5},
		}, Total: ExperimentPerf{ID: "all", WallMS: 1, VirtualMS: 5}, Service: s}
	}

	// Identical service objects: exact match, no skew, no drift.
	d := DiffReports(base(svc()), base(svc()), DiffOptions{})
	if len(d.ServiceDrift) != 0 || len(d.SkewNotes) != 0 {
		t.Fatalf("identical service objects: drift %v, skew %v", d.ServiceDrift, d.SkewNotes)
	}
	var md bytes.Buffer
	d.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "service metrics: exact match") {
		t.Fatalf("markdown missing service match line:\n%s", md.String())
	}

	// Presence mismatch: skew note, no drift (the older baseline
	// predates the soak).
	d = DiffReports(base(nil), base(svc()), DiffOptions{})
	if len(d.ServiceDrift) != 0 {
		t.Fatalf("presence mismatch treated as drift: %v", d.ServiceDrift)
	}
	if joined := strings.Join(d.SkewNotes, "\n"); !strings.Contains(joined, "service object present only in the new report") {
		t.Fatalf("skew notes missing service presence note: %v", d.SkewNotes)
	}

	// A drifted deterministic field fails like virtual drift.
	drifted := svc()
	drifted.SumUS++
	drifted.Classes[0].ServiceUS = 763
	d = DiffReports(base(svc()), base(drifted), DiffOptions{})
	if len(d.ServiceDrift) != 2 {
		t.Fatalf("service drift entries = %v, want sum_us and class service_us", d.ServiceDrift)
	}
	md.Reset()
	d.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "service metrics: **DRIFTED**") {
		t.Fatalf("markdown missing service drift line:\n%s", md.String())
	}

	// The arrival rate is derived from the class service times, so a
	// service-time change moves both: that is drift, not a different
	// configuration.
	moved := svc()
	moved.RatePerSec = 4099.5
	moved.Classes[1].ServiceUS = 4400
	d = DiffReports(base(svc()), base(moved), DiffOptions{})
	if len(d.ServiceDrift) != 2 || len(d.SkewNotes) != 0 {
		t.Fatalf("rate + service_us move: drift %v, skew %v; want rate_per_sec and class service_us drift, no skew", d.ServiceDrift, d.SkewNotes)
	}
	md.Reset()
	d.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "service metrics: **DRIFTED**") || strings.Contains(md.String(), "exact match (p50") {
		t.Fatalf("markdown must report the rate + service_us move as drift:\n%s", md.String())
	}

	// Different configurations are incomparable: skew, never drift.
	other := svc()
	other.Requests = 50_000
	d = DiffReports(base(svc()), base(other), DiffOptions{})
	if len(d.ServiceDrift) != 0 {
		t.Fatalf("config mismatch treated as drift: %v", d.ServiceDrift)
	}
	if joined := strings.Join(d.SkewNotes, "\n"); !strings.Contains(joined, "different configurations") {
		t.Fatalf("skew notes missing config note: %v", d.SkewNotes)
	}

	// A skipped comparison never renders as an exact match.
	for _, pair := range [][2]*ServicePerf{{svc(), other}, {nil, svc()}, {svc(), nil}} {
		d = DiffReports(base(pair[0]), base(pair[1]), DiffOptions{})
		md.Reset()
		d.WriteMarkdown(&md)
		if strings.Contains(md.String(), "service metrics: exact match") {
			t.Fatalf("skipped service comparison rendered as an exact match:\n%s", md.String())
		}
	}
}
