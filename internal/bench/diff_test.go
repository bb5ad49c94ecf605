package bench

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"reflect"
	"slices"
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

// TestLoadCommittedBaselines: the oldest committed BENCH_*.json
// (schema v1 through v3) must keep parsing through the current loader,
// which packreport uses to plot the history.
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

// TestPr17MatchesPr16Exact is the acceptance check of the v8 report:
// each experiment row of BENCH_pr17 equals BENCH_pr16 bit for bit —
// machine_runs, virtual_ms and derived its "<id>/prefetch" row, tables
// and rows its "<id>" row — and so do the total and the service object.
// Dropping the replay rows and the wall figures moved no exact figure.
func TestPr17MatchesPr16Exact(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr16.json")
	cur := loadCommitted(t, "BENCH_pr17.json")
	if cur.Schema != PerfSchema {
		t.Fatalf("BENCH_pr17 schema %q, want %q", cur.Schema, PerfSchema)
	}
	rows := make(map[string]ExperimentPerf, len(old.Experiments))
	for _, e := range old.Experiments {
		rows[e.ID] = e
	}
	if len(cur.Experiments)*2 != len(old.Experiments) {
		t.Fatalf("%d v8 rows for %d v7 rows", len(cur.Experiments), len(old.Experiments))
	}
	for _, e := range cur.Experiments {
		pre, ok1 := rows[e.ID+"/prefetch"]
		rep, ok2 := rows[e.ID]
		if !ok1 || !ok2 {
			t.Fatalf("%s: no prefetch/replay pair in BENCH_pr16", e.ID)
		}
		if e.MachineRuns != pre.MachineRuns || e.VirtualMS != pre.VirtualMS || !maps.Equal(e.Derived, pre.Derived) {
			t.Errorf("%s: runs/virtual/derived %d/%v/%v, BENCH_pr16 prefetch %d/%v/%v",
				e.ID, e.MachineRuns, e.VirtualMS, e.Derived, pre.MachineRuns, pre.VirtualMS, pre.Derived)
		}
		if e.Tables != rep.Tables || e.Rows != rep.Rows {
			t.Errorf("%s: tables/rows %d/%d, BENCH_pr16 %d/%d", e.ID, e.Tables, e.Rows, rep.Tables, rep.Rows)
		}
	}
	if cur.Total.VirtualMS != old.Total.VirtualMS || !maps.Equal(cur.Total.Derived, old.Total.Derived) ||
		cur.Total.MachineRuns != old.Total.MachineRuns || cur.Total.Tables != old.Total.Tables || cur.Total.Rows != old.Total.Rows {
		t.Errorf("total %+v, BENCH_pr16 %+v", cur.Total, old.Total)
	}
	if !reflect.DeepEqual(cur.Service, old.Service) {
		t.Errorf("service %+v, BENCH_pr16 %+v", cur.Service, old.Service)
	}

	d := DiffReports(cur, cur)
	var md, tsv bytes.Buffer
	d.WriteMarkdown(&md)
	d.WriteTSV(&tsv)
	if !d.OK() || !strings.Contains(md.String(), fmt.Sprintf("**exact match**: %d experiment rows", len(cur.Experiments))) {
		t.Fatalf("self-diff of BENCH_pr17 not an exact match:\n%s", md.String())
	}
	if got := strings.Count(tsv.String(), "\n"); got != len(d.Rows)+1 {
		t.Fatalf("tsv has %d lines for %d rows", got, len(d.Rows))
	}
}

// TestWholeSweepBaselineMovesOnlyItsRows is the acceptance check of the
// re-baseline in which Table I's crossover search and the §6.4 model
// check read their whole ascending sweeps: against BENCH_pr20 every
// experiment row but table1 and model is bit-identical; those two rows
// and the total keep their table and row counts and only gain machine
// runs; the service object is unchanged.
func TestWholeSweepBaselineMovesOnlyItsRows(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr20.json")
	cur := loadCommitted(t, "BENCH_pr22.json")
	if cur.Schema != PerfSchema {
		t.Fatalf("BENCH_pr22 schema %q, want %q", cur.Schema, PerfSchema)
	}
	rows := make(map[string]ExperimentPerf, len(old.Experiments))
	for _, e := range old.Experiments {
		rows[e.ID] = e
	}
	if len(cur.Experiments) != len(old.Experiments) {
		t.Fatalf("%d rows, BENCH_pr20 has %d", len(cur.Experiments), len(old.Experiments))
	}
	grows := func(id string, was, is ExperimentPerf) {
		if is.Tables != was.Tables || is.Rows != was.Rows || is.MachineRuns <= was.MachineRuns {
			t.Errorf("%s: tables/rows/runs %d/%d/%d, BENCH_pr20 %d/%d/%d: want the same tables and rows and more runs",
				id, is.Tables, is.Rows, is.MachineRuns, was.Tables, was.Rows, was.MachineRuns)
		}
	}
	for _, e := range cur.Experiments {
		was, ok := rows[e.ID]
		switch {
		case !ok:
			t.Errorf("%s: no BENCH_pr20 row", e.ID)
		case e.ID == "table1" || e.ID == "model":
			grows(e.ID, was, e)
		case !reflect.DeepEqual(e, was):
			t.Errorf("%s: %+v, BENCH_pr20 %+v", e.ID, e, was)
		}
	}
	grows("all", old.Total, cur.Total)
	if !reflect.DeepEqual(cur.Service, old.Service) {
		t.Errorf("service %+v, BENCH_pr20 %+v", cur.Service, old.Service)
	}
}

// TestDiffPerturbedVirtualFails: a virtual_ms nudged by one ulp must
// fail the exact rule on that row only.
func TestDiffPerturbedVirtualFails(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr17.json")
	cur := loadCommitted(t, "BENCH_pr17.json")
	cur.Experiments[1].VirtualMS = math.Nextafter(cur.Experiments[1].VirtualMS, math.Inf(1))
	d := DiffReports(old, cur)
	if d.OK() {
		t.Fatal("perturbed virtual_ms not detected")
	}
	for _, r := range d.Rows {
		if drifted := len(r.Drift) > 0; drifted != (r.New.ID == cur.Experiments[1].ID) {
			t.Errorf("%s: drift %v", r.New.ID, r.Drift)
		}
	}
	var md bytes.Buffer
	d.WriteMarkdown(&md)
	if !strings.Contains(md.String(), "DRIFT") || strings.Contains(md.String(), "exact match") {
		t.Fatalf("markdown must mark the drift and claim no match:\n%s", md.String())
	}
}

// TestDiffDerivedDriftFails checks the derived means: a drifted value,
// and a key present on one side only, fail even when virtual_ms
// agrees.
func TestDiffDerivedDriftFails(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr17.json")
	for _, mutate := range []func(map[string]float64){
		func(m map[string]float64) { m["imbalance"] += 1e-12 },
		func(m map[string]float64) { delete(m, "imbalance") },
		func(m map[string]float64) { m["plan_hit_rate"] = 1 },
	} {
		cur := loadCommitted(t, "BENCH_pr17.json")
		mutate(cur.Experiments[0].Derived)
		if d := DiffReports(old, cur); d.OK() {
			t.Fatalf("derived change not detected: %v", cur.Experiments[0].Derived)
		}
	}
}

// TestDiffRowAccounting: a row on one side only, and a row whose
// tables, rows or machine_runs moved, fail the comparison; "exact
// match" counts the experiment rows compared.
func TestDiffRowAccounting(t *testing.T) {
	mk := func(rows ...ExperimentPerf) *PerfReport {
		r := &PerfReport{Schema: PerfSchema, Parallel: 1, Experiments: rows}
		r.Total = SumPerf(rows)
		return r
	}
	a := ExperimentPerf{ID: "a", Rows: 4, MachineRuns: 2, VirtualMS: 5}
	b := ExperimentPerf{ID: "b", Rows: 1, MachineRuns: 1, VirtualMS: 1}

	d := DiffReports(mk(a, b), mk(a, b))
	var md bytes.Buffer
	d.WriteMarkdown(&md)
	if !d.OK() || d.ExperimentRows() != 2 || !strings.Contains(md.String(), "**exact match**: 2 experiment rows, the total\n") {
		t.Fatalf("identical reports: ok %v, %d rows:\n%s", d.OK(), d.ExperimentRows(), md.String())
	}
	for name, cur := range map[string]*PerfReport{
		"row gone":     mk(a),
		"row added":    mk(a, b, ExperimentPerf{ID: "c"}),
		"rows moved":   mk(a, ExperimentPerf{ID: "b", Rows: 2, MachineRuns: 1, VirtualMS: 1}),
		"runs moved":   mk(a, ExperimentPerf{ID: "b", Rows: 1, MachineRuns: 2, VirtualMS: 1}),
		"tables moved": mk(a, ExperimentPerf{ID: "b", Tables: 1, Rows: 1, MachineRuns: 1, VirtualMS: 1}),
	} {
		if DiffReports(mk(a, b), cur).OK() {
			t.Errorf("%s: comparison passed", name)
		}
	}
}

// TestDiffRenamedRowsFail is the regression test for the comparator
// that passed when the baseline's rows vanished: renaming every row
// (and moving every virtual_ms) used to print "exact match (1 rows)",
// counting only the total, and dropping rows compared the rest.
func TestDiffRenamedRowsFail(t *testing.T) {
	old := loadCommitted(t, "BENCH_pr17.json")
	renamed := loadCommitted(t, "BENCH_pr17.json")
	for i := range renamed.Experiments {
		renamed.Experiments[i].ID += "-renamed"
		renamed.Experiments[i].VirtualMS++
	}
	dropped := loadCommitted(t, "BENCH_pr17.json")
	dropped.Experiments = slices.DeleteFunc(dropped.Experiments, func(e ExperimentPerf) bool { return e.ID == "planrepeat" })
	noService := loadCommitted(t, "BENCH_pr17.json")
	noService.Service = nil
	for name, cur := range map[string]*PerfReport{"renamed": renamed, "dropped": dropped, "no service": noService} {
		d := DiffReports(old, cur)
		var md bytes.Buffer
		d.WriteMarkdown(&md)
		if d.OK() || strings.Contains(md.String(), "exact match") {
			t.Errorf("%s: comparison passed:\n%s", name, md.String())
		}
	}
}

// TestDiffSchemaSkewV5VsV4: a v5 report against a v4 baseline (or any
// pre-v8 report) is not compared at all — the wall rows and objects
// the skew paths used to skip are gone, and packreport plots the old
// baselines instead.
func TestDiffSchemaSkewV5VsV4(t *testing.T) {
	old := &PerfReport{Schema: "packbench-perf/v4", Experiments: []ExperimentPerf{{ID: "fig3", VirtualMS: 5}},
		Total: ExperimentPerf{ID: "all", VirtualMS: 5}}
	cur := &PerfReport{Schema: "packbench-perf/v5", Experiments: []ExperimentPerf{{ID: "fig3", VirtualMS: 5}},
		Total: ExperimentPerf{ID: "all", VirtualMS: 5}}
	for _, pair := range [][2]*PerfReport{{old, cur}, {cur, cur}, {loadCommitted(t, "BENCH_pr16.json"), loadCommitted(t, "BENCH_pr17.json")}} {
		d := DiffReports(pair[0], pair[1])
		if d.OK() || len(d.Rows) != 0 || !strings.Contains(strings.Join(d.Failures, "\n"), "packdiff compares "+PerfSchema) {
			t.Errorf("%s vs %s: ok %v, %d rows, failures %v", pair[0].Schema, pair[1].Schema, d.OK(), len(d.Rows), d.Failures)
		}
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

// TestDiffServiceObject covers the service soak object: exact
// comparison under the same configuration, drift on any deterministic
// field, and failure when one side lacks the object or ran another
// configuration.
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
			{ID: "fig3", VirtualMS: 5},
		}, Total: ExperimentPerf{ID: "all", VirtualMS: 5}, Service: s}
	}

	d := DiffReports(base(svc()), base(svc()))
	var md bytes.Buffer
	d.WriteMarkdown(&md)
	if !d.OK() || !d.ServiceCompared || !strings.Contains(md.String(), "the total and the service object") {
		t.Fatalf("identical service objects: ok %v, failures %v:\n%s", d.OK(), d.Failures, md.String())
	}

	// A drifted deterministic field fails like virtual drift; the
	// arrival rate is derived from the class service times, so it is
	// drift too, not configuration.
	drifted := svc()
	drifted.SumUS++
	drifted.RatePerSec = 4099.5
	drifted.Classes[0].ServiceUS = 763
	d = DiffReports(base(svc()), base(drifted))
	if len(d.Failures) != 3 || !d.ServiceCompared {
		t.Fatalf("service drift = %v, want rate_per_sec, sum_us and class service_us", d.Failures)
	}

	other := svc()
	other.Requests = 50_000
	for name, pair := range map[string][2]*ServicePerf{
		"config":       {svc(), other},
		"new lacks it": {svc(), nil},
		"old lacks it": {nil, svc()},
	} {
		d = DiffReports(base(pair[0]), base(pair[1]))
		md.Reset()
		d.WriteMarkdown(&md)
		if d.OK() || d.ServiceCompared || strings.Contains(md.String(), "exact match") {
			t.Errorf("%s: comparison passed:\n%s", name, md.String())
		}
	}
}
