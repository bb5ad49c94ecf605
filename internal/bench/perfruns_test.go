package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runsOf builds one run per value of metric m for workload w, seeds
// counting up from first.
func runsOf(w, m string, first uint64, vals ...float64) []PerfRun {
	out := make([]PerfRun, len(vals))
	for i, v := range vals {
		out[i] = PerfRun{Workload: w, Seed: first + uint64(i), Attempted: 100, Metrics: map[string]float64{m: v}}
	}
	return out
}

// spread returns n values evenly spaced from lo by step.
func spread(n int, lo, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}

func specOf(m EndToEndMetric) *BenchmarkSpec {
	spec := &BenchmarkSpec{EndToEnd: []EndToEndMetric{m}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"pack-cold"})
	return spec
}

// TestComparePerfRuns covers each verdict, the pair count and the
// failed-op share. The parent runs of most cases read 10.0–10.9 ms (an
// interquartile range of 0.45 ms, 4.4% of the median).
func TestComparePerfRuns(t *testing.T) {
	lower := EndToEndMetric{Name: "op_norm_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25}
	higher := EndToEndMetric{Name: "op_norm_ms_p50", Unit: "x", Better: "higher", Bound: 0.25}
	parent := runsOf("pack-cold", lower.Name, 1, spread(10, 10, 0.1)...)
	cases := []struct {
		name       string
		metric     EndToEndMetric
		old, new   []PerfRun
		verdict    Verdict
		pairs      int
		wins, lost int
		ok         bool
	}{
		{"gain: 10 of 10 pairs, medians 2 ms apart", lower, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 8, 0.1)...), Gain, 10, 10, 0, true},
		{"gain: 9 of 10 pairs", lower, parent,
			runsOf("pack-cold", lower.Name, 1, append(spread(9, 8, 0.1), 11)...), Gain, 10, 9, 1, true},
		{"8 of 10 pairs is no gain", lower, parent,
			runsOf("pack-cold", lower.Name, 1, append(spread(8, 8, 0.1), 11, 11)...), NoRegression, 10, 8, 2, true},
		{"fewer than 10 pairs is never a gain", lower, parent[:9],
			runsOf("pack-cold", lower.Name, 1, spread(9, 8, 0.1)...), NoRegression, 9, 9, 0, true},
		{"winning every pair by less than the parent IQR is no gain", lower, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 9.9, 0.1)...), NoRegression, 10, 10, 0, true},
		{"no regression: 10% slower, inside the bound", lower, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 11, 0.11)...), NoRegression, 10, 0, 10, true},
		{"regression: 30% slower", lower, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 13, 0.13)...), Regression, 10, 0, 10, false},
		{"regression on a higher-is-better metric", higher, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 7, 0.07)...), Regression, 10, 0, 10, false},
		{"ties count for neither side", lower, parent,
			runsOf("pack-cold", lower.Name, 1, spread(10, 10, 0.1)...), NoRegression, 10, 0, 0, true},
		{"unresolved: the parent spreads wider than the bound", lower,
			runsOf("pack-cold", lower.Name, 1, 5, 10, 15, 20),
			runsOf("pack-cold", lower.Name, 1, 6, 11, 12, 19), Unresolved, 4, 2, 2, false},
		{"resolved when every change run beats every parent run", lower,
			runsOf("pack-cold", lower.Name, 1, 5, 10, 15, 20),
			runsOf("pack-cold", lower.Name, 1, 4, 4.5, 3, 2), NoRegression, 4, 4, 0, true},
		{"seeds on one side only stay out of the pairs", lower, parent[:3],
			runsOf("pack-cold", lower.Name, 2, 9, 9, 9), NoRegression, 2, 2, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := CompareRuns(specOf(c.metric), c.old, c.new)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Metrics) != 1 {
				t.Fatalf("%d metric rows, want 1", len(d.Metrics))
			}
			m := d.Metrics[0]
			if m.Verdict != c.verdict || m.Pairs != c.pairs || m.Wins != c.wins || m.Losses != c.lost || d.OK() != c.ok {
				t.Fatalf("verdict %q, %d/%d/%d pairs/wins/losses, ok %v; want %q, %d/%d/%d, ok %v (failures %v)",
					m.Verdict, m.Pairs, m.Wins, m.Losses, d.OK(), c.verdict, c.pairs, c.wins, c.lost, c.ok, d.Failures)
			}
			if m.P < 0 || m.P > 1 {
				t.Fatalf("p = %v", m.P)
			}
		})
	}

	// Runs left without a partner are noted.
	d, err := CompareRuns(specOf(lower), parent[:3], runsOf("pack-cold", lower.Name, 2, 9, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Notes) != 2 {
		t.Fatalf("notes %v, want seed 1 (parent only) and seed 4 (change only)", d.Notes)
	}

	// A larger share of failed ops fails the change whatever the
	// metrics say.
	failing := runsOf("pack-cold", lower.Name, 1, spread(10, 10, 0.1)...)
	failing[3].Failed = 1
	d, err = CompareRuns(specOf(lower), parent, failing)
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || d.Metrics[0].Verdict != NoRegression || !strings.Contains(strings.Join(d.Failures, "\n"), "failed 1 of 1000 ops") {
		t.Fatalf("failed-op share not caught: %v", d.Failures)
	}
	if d, err = CompareRuns(specOf(lower), failing, parent); err != nil || !d.OK() {
		t.Fatalf("a lower failed-op share failed the change: %v %v", err, d.Failures)
	}

	// A workload with runs on one side only cannot pass.
	d, err = CompareRuns(specOf(lower), parent, nil)
	if err != nil || d.OK() {
		t.Fatalf("one-sided workload: err %v, failures %v", err, d.Failures)
	}
}

// TestComparePerfRunsRejects: a workload or a metric BENCHMARK.json
// does not declare, a missing metric and a traced run are usage errors.
func TestComparePerfRunsRejects(t *testing.T) {
	spec := specOf(EndToEndMetric{Name: "op_norm_ms_p50", Better: "lower", Bound: 0.25})
	good := runsOf("pack-cold", "op_norm_ms_p50", 1, 10)
	for name, bad := range map[string][]PerfRun{
		"unknown workload": runsOf("pack-hot", "op_norm_ms_p50", 1, 10),
		"unknown metric":   {{Workload: "pack-cold", Seed: 1, Metrics: map[string]float64{"op_norm_ms_p50": 10, "pack.pack_us": 1}}},
		"missing metric":   {{Workload: "pack-cold", Seed: 1, Metrics: map[string]float64{}}},
	} {
		if _, err := CompareRuns(spec, good, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	const prov = `{"provenance":{"workload":"pack-cold","seed":1,"trace":%s}}`
	const result = `{"attempted":10,"failed":0,"metrics":{"op_norm_ms_p50":{"value":1,"unit":"ms"}}}`
	for name, data := range map[string]string{
		"traced run":            strings.Replace(prov, "%s", "true", 1) + "\n" + result + "\n",
		"result without run":    result + "\n",
		"run without result":    strings.Replace(prov, "%s", "false", 1) + "\n",
		"two provenance lines":  strings.Repeat(strings.Replace(prov, "%s", "false", 1)+"\n", 2) + result + "\n",
		"not json after a line": strings.Replace(prov, "%s", "false", 1) + "\n{",
	} {
		if _, err := ParsePerfRuns([]byte(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	runs, err := ParsePerfRuns([]byte(strings.Replace(prov, "%s", "false", 1) + "\n" + result + "\n"))
	if err != nil || len(runs) != 1 || runs[0].Metrics["op_norm_ms_p50"] != 1 || runs[0].Attempted != 10 {
		t.Fatalf("one untraced run: %+v, %v", runs, err)
	}
}

// TestPerfRunFixtures compares the committed perfbench fixtures against
// the repo's BENCHMARK.json, as packdiff and make reportcheck do: the
// change passes on every workload, the regressed file fails on
// pack-warm's median latency only.
func TestPerfRunFixtures(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := FindBenchmarkSpec(wd)
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string) []PerfRun {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !IsPerfRuns(data) {
			t.Fatalf("%s not recognised as perfbench output", name)
		}
		runs, err := ParsePerfRuns(data)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	parent := load("perfbench_parent.jsonl")
	d, err := CompareRuns(spec, parent, load("perfbench_change.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() || len(d.Metrics) != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Fatalf("change: ok %v, %d metric rows, failures %v", d.OK(), len(d.Metrics), d.Failures)
	}
	d, err = CompareRuns(spec, parent, load("perfbench_regressed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Failures) != 1 || !strings.HasPrefix(d.Failures[0], "pack-warm op_norm_ms_p50: regression") {
		t.Fatalf("regressed: failures %v", d.Failures)
	}
	var md, tsv bytes.Buffer
	d.WriteMarkdown(&md)
	d.WriteTSV(&tsv)
	if !strings.Contains(md.String(), "**REGRESSION**") || strings.Count(tsv.String(), "\n") != len(d.Metrics)+1 {
		t.Fatalf("tables:\n%s\n%s", md.String(), tsv.String())
	}

	report, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pr17.json"))
	if err != nil {
		t.Fatal(err)
	}
	if IsPerfRuns(report) {
		t.Fatal("a packbench report recognised as perfbench output")
	}
}
