package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"packunpack/internal/stats"
)

// This file is cmd/packdiff's comparator of repo-benchmark runs: the
// output of perfbench (BENCHMARK.json), a provenance line and then a
// result line per run, one file per side. For each workload and each
// end-to-end metric BENCHMARK.json declares, it summarizes each side's
// runs, pairs the runs by seed, and judges the change by the bound the
// benchmark sets on that metric.

// BenchmarkSpec is the part of BENCHMARK.json the comparator reads.
type BenchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []EndToEndMetric `json:"end_to_end"`
}

// EndToEndMetric is one end-to-end metric of the benchmark.
type EndToEndMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the largest relative loss of the median the benchmark
	// tolerates, and the largest interquartile range, relative to the
	// median, at which the parent's runs can still tell.
	Bound float64 `json:"bound"`
}

// FindBenchmarkSpec reads BENCHMARK.json from dir or from the nearest
// directory above it that has one.
func FindBenchmarkSpec(dir string) (*BenchmarkSpec, error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec BenchmarkSpec
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return &spec, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// PerfRun is one perfbench invocation: its provenance and its result.
type PerfRun struct {
	Workload          string
	Seed              uint64
	Attempted, Failed int
	Metrics           map[string]float64
}

// perfLine is either line of a run; the provenance line holds only the
// "provenance" object.
type perfLine struct {
	Provenance *struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Trace    bool   `json:"trace"`
	} `json:"provenance"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// IsPerfRuns reports whether data begins with a perfbench provenance
// line rather than a packbench report.
func IsPerfRuns(data []byte) bool {
	var first perfLine
	return json.NewDecoder(bytes.NewReader(data)).Decode(&first) == nil && first.Provenance != nil
}

// ParsePerfRuns reads perfbench output. Every result line must follow
// its run's provenance line, and only untraced runs are accepted: a
// traced run's result holds per-layer metrics, not end-to-end ones.
func ParsePerfRuns(data []byte) ([]PerfRun, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var runs []PerfRun
	var cur *PerfRun
	for {
		var line perfLine
		err := dec.Decode(&line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch p := line.Provenance; {
		case p != nil && cur != nil:
			return nil, fmt.Errorf("run %d (%s, seed %d) has no result line", len(runs)+1, cur.Workload, cur.Seed)
		case p != nil && p.Trace:
			return nil, fmt.Errorf("run %d (%s, seed %d) is traced: its result holds per-layer metrics, and packdiff compares the end-to-end metrics of untraced runs", len(runs)+1, p.Workload, p.Seed)
		case p != nil:
			cur = &PerfRun{Workload: p.Workload, Seed: p.Seed}
		case cur == nil:
			return nil, fmt.Errorf("result line %d has no provenance line before it", len(runs)+1)
		default:
			cur.Attempted, cur.Failed = line.Attempted, line.Failed
			cur.Metrics = make(map[string]float64, len(line.Metrics))
			for name, m := range line.Metrics {
				cur.Metrics[name] = m.Value
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("run %d (%s, seed %d) has no result line", len(runs)+1, cur.Workload, cur.Seed)
	}
	if len(runs) == 0 {
		return nil, errors.New("no perfbench runs")
	}
	return runs, nil
}

// Verdict is the judgement of one metric of one workload.
type Verdict string

const (
	// Gain: the change won at least 9 in 10 of at least 10 pairs, and
	// its median is better by more than the parent's interquartile
	// range.
	Gain Verdict = "gain"
	// NoRegression: the change's median is within the bound.
	NoRegression Verdict = "no regression"
	// Regression: the change's median is worse than the parent's by
	// more than the bound.
	Regression Verdict = "regression"
	// Unresolved: the parent's runs spread wider than the bound, so a
	// loss within it cannot be told from noise, and not every change
	// run beats every parent run.
	Unresolved Verdict = "unresolved"
)

// MetricComparison is the comparison of one metric of one workload.
type MetricComparison struct {
	Workload string
	Metric   EndToEndMetric
	Old, New stats.Summary
	// Pairs counts the runs matched by seed; Wins and Losses the pairs
	// in which the change was strictly better or worse.
	Pairs, Wins, Losses int
	// P is the two-sided Mann–Whitney p over all runs of both sides.
	P       float64
	Verdict Verdict
}

// loss is the change's relative loss of the median: positive when the
// change is worse.
func (c MetricComparison) loss() float64 {
	d := c.New.Median - c.Old.Median
	if c.Metric.Better == "higher" {
		d = -d
	}
	return ratio(d, c.Old.Median)
}

// ratio is a/|b|, with 0/0 = 0 and a/0 infinite.
func ratio(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if b == 0 {
		return math.Copysign(math.Inf(1), a)
	}
	return a / math.Abs(b)
}

// better reports whether value a beats value b on metric m.
func (m EndToEndMetric) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge sets the verdict from the summaries and the pair counts.
func (c *MetricComparison) judge() {
	allBeat := c.Metric.better(c.New.Max, c.Old.Min)
	if c.Metric.Better == "higher" {
		allBeat = c.Metric.better(c.New.Min, c.Old.Max)
	}
	gainBy := c.Old.Median - c.New.Median
	if c.Metric.Better == "higher" {
		gainBy = -gainBy
	}
	switch {
	case c.loss() > c.Metric.Bound:
		c.Verdict = Regression
	case ratio(c.Old.IQR(), c.Old.Median) > c.Metric.Bound && !allBeat:
		c.Verdict = Unresolved
	case c.Pairs >= 10 && 10*c.Wins >= 9*c.Pairs && gainBy > c.Old.IQR():
		c.Verdict = Gain
	default:
		c.Verdict = NoRegression
	}
}

// OpsShare counts one workload's runs and operations on each side,
// the parent's first.
type OpsShare struct {
	Workload                string
	Runs, Failed, Attempted [2]int
}

// worse reports whether the change failed a larger share of its ops.
func (o OpsShare) worse() bool {
	return float64(o.Failed[1])*float64(max(o.Attempted[0], 1)) >
		float64(o.Failed[0])*float64(max(o.Attempted[1], 1))
}

// RunsDiff is the comparison of two sets of perfbench runs.
type RunsDiff struct {
	OldPath, NewPath string
	Metrics          []MetricComparison
	Ops              []OpsShare
	// Notes lists runs that found no partner of the same seed.
	Notes []string
	// Failures lists why the change does not pass.
	Failures []string
}

// OK reports whether the change passes on every workload.
func (d *RunsDiff) OK() bool { return len(d.Failures) == 0 }

// CompareRuns compares the parent's runs (old) with the change's (new)
// workload by workload. A run of a workload, or a metric, that spec
// does not declare is an error, as is a run that lacks a declared
// end-to-end metric.
func CompareRuns(spec *BenchmarkSpec, old, new []PerfRun) (*RunsDiff, error) {
	metricNames := make(map[string]bool, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		metricNames[m.Name] = true
	}
	byWorkload := map[string][2][]PerfRun{}
	for _, w := range spec.Workloads {
		byWorkload[w.Name] = [2][]PerfRun{}
	}
	for side, runs := range [2][]PerfRun{old, new} {
		for _, r := range runs {
			sides, ok := byWorkload[r.Workload]
			if !ok {
				return nil, fmt.Errorf("workload %q is not in BENCHMARK.json", r.Workload)
			}
			for name := range r.Metrics {
				if !metricNames[name] {
					return nil, fmt.Errorf("%s seed %d: metric %q is not an end-to-end metric of BENCHMARK.json", r.Workload, r.Seed, name)
				}
			}
			for name := range metricNames {
				if _, ok := r.Metrics[name]; !ok {
					return nil, fmt.Errorf("%s seed %d: the result lacks metric %q", r.Workload, r.Seed, name)
				}
			}
			sides[side] = append(sides[side], r)
			byWorkload[r.Workload] = sides
		}
	}

	d := &RunsDiff{}
	for _, w := range spec.Workloads {
		sides := byWorkload[w.Name]
		switch {
		case len(sides[0]) == 0 && len(sides[1]) == 0:
			continue
		case len(sides[0]) == 0 || len(sides[1]) == 0:
			d.Failures = append(d.Failures, fmt.Sprintf("%s has runs on one side only (%d parent, %d change)", w.Name, len(sides[0]), len(sides[1])))
			continue
		}
		ops := OpsShare{Workload: w.Name}
		for side, runs := range sides {
			ops.Runs[side] = len(runs)
			for _, r := range runs {
				ops.Failed[side] += r.Failed
				ops.Attempted[side] += r.Attempted
			}
		}
		d.Ops = append(d.Ops, ops)
		if ops.worse() {
			d.Failures = append(d.Failures, fmt.Sprintf("%s: the change failed %d of %d ops, the parent %d of %d",
				w.Name, ops.Failed[1], ops.Attempted[1], ops.Failed[0], ops.Attempted[0]))
		}
		pairs := d.pairBySeed(w.Name, sides[0], sides[1])
		for _, m := range spec.EndToEnd {
			c := compareMetric(w.Name, m, sides[0], sides[1], pairs)
			d.Metrics = append(d.Metrics, c)
			if c.Verdict == Regression || c.Verdict == Unresolved {
				d.Failures = append(d.Failures, fmt.Sprintf("%s %s: %s (median %.4g → %.4g %s, %+.1f%%, bound %.0f%%, parent IQR %.4g)",
					w.Name, m.Name, c.Verdict, c.Old.Median, c.New.Median, m.Unit, 100*c.loss(), 100*m.Bound, c.Old.IQR()))
			}
		}
	}
	if len(d.Metrics) == 0 && len(d.Failures) == 0 {
		return nil, errors.New("no workload has runs on both sides")
	}
	return d, nil
}

// pairBySeed matches the k-th run of a seed on one side with the k-th
// run of that seed on the other, and notes the runs left over.
func (d *RunsDiff) pairBySeed(workload string, old, new []PerfRun) [][2]PerfRun {
	bySeed := func(runs []PerfRun) map[uint64][]PerfRun {
		m := map[uint64][]PerfRun{}
		for _, r := range runs {
			m[r.Seed] = append(m[r.Seed], r)
		}
		return m
	}
	o, n := bySeed(old), bySeed(new)
	seeds := slices.Sorted(maps.Keys(o))
	for s := range n {
		if _, ok := o[s]; !ok {
			seeds = append(seeds, s)
		}
	}
	var pairs [][2]PerfRun
	for _, s := range seeds {
		k := min(len(o[s]), len(n[s]))
		for i := 0; i < k; i++ {
			pairs = append(pairs, [2]PerfRun{o[s][i], n[s][i]})
		}
		if extra := len(o[s]) - k; extra > 0 {
			d.Notes = append(d.Notes, fmt.Sprintf("%s seed %d: %d parent run(s) without a change run", workload, s, extra))
		}
		if extra := len(n[s]) - k; extra > 0 {
			d.Notes = append(d.Notes, fmt.Sprintf("%s seed %d: %d change run(s) without a parent run", workload, s, extra))
		}
	}
	return pairs
}

// compareMetric summarizes one metric over both sides' runs, counts
// the pairs each side won (ties count for neither) and judges it.
func compareMetric(workload string, m EndToEndMetric, old, new []PerfRun, pairs [][2]PerfRun) MetricComparison {
	values := func(runs []PerfRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = r.Metrics[m.Name]
		}
		return out
	}
	ov, nv := values(old), values(new)
	c := MetricComparison{
		Workload: workload, Metric: m,
		Old: stats.Summarize(ov), New: stats.Summarize(nv),
		Pairs: len(pairs),
		P:     stats.MannWhitneyU(ov, nv).P,
	}
	for _, p := range pairs {
		o, n := p[0].Metrics[m.Name], p[1].Metrics[m.Name]
		switch {
		case m.better(n, o):
			c.Wins++
		case m.better(o, n):
			c.Losses++
		}
	}
	c.judge()
	return c
}

// WriteMarkdown renders the comparison as GitHub-flavoured markdown.
func (d *RunsDiff) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## packdiff: perfbench runs %s → %s\n\n", orReport(d.OldPath), orReport(d.NewPath))
	fmt.Fprintln(w, "Median [q1, q3] of each side's runs; pairs match runs by seed; bounds from BENCHMARK.json.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | parent | change | Δ median | change won | p | verdict |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|:--|")
	for _, c := range d.Metrics {
		fmt.Fprintf(w, "| %s | %s (%s, bound %.0f%%) | %s | %s | %+.1f%% | %d/%d | %.3f | %s |\n",
			c.Workload, c.Metric.Name, c.Metric.Unit, 100*c.Metric.Bound, fmtSummary(c.Old), fmtSummary(c.New),
			100*ratio(c.New.Median-c.Old.Median, c.Old.Median), c.Wins, c.Pairs, c.P, verdictCell(c.Verdict))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | parent runs | change runs | parent failed ops | change failed ops |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	for _, o := range d.Ops {
		fmt.Fprintf(w, "| %s | %d | %d | %d of %d | %d of %d |\n",
			o.Workload, o.Runs[0], o.Runs[1], o.Failed[0], o.Attempted[0], o.Failed[1], o.Attempted[1])
	}
	fmt.Fprintln(w)
	for _, n := range d.Notes {
		fmt.Fprintf(w, "- note: %s\n", n)
	}
	if d.OK() {
		fmt.Fprintln(w, "- **pass**: no end-to-end metric regressed and no workload failed a larger share of its ops")
		return
	}
	for _, f := range d.Failures {
		fmt.Fprintf(w, "- **fail**: %s\n", f)
	}
}

// WriteTSV renders the metric table as tab-separated values.
func (d *RunsDiff) WriteTSV(w io.Writer) {
	fmt.Fprintln(w, "workload\tmetric\tparent_median\tparent_q1\tparent_q3\tchange_median\tchange_q1\tchange_q3\twins\tlosses\tpairs\tp\tverdict")
	for _, c := range d.Metrics {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\t%v\t%v\t%v\t%d\t%d\t%d\t%v\t%s\n", c.Workload, c.Metric.Name,
			c.Old.Median, c.Old.Q1, c.Old.Q3, c.New.Median, c.New.Q1, c.New.Q3, c.Wins, c.Losses, c.Pairs, c.P, c.Verdict)
	}
}

func fmtSummary(s stats.Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func verdictCell(v Verdict) string {
	if v == Regression || v == Unresolved {
		return "**" + strings.ToUpper(string(v)) + "**"
	}
	return string(v)
}
