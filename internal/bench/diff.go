package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
)

// This file is cmd/packdiff's comparator of two packbench -json
// reports. Every figure of a v8 report is a replay of the cost model,
// so two runs of the same grid must agree bit for bit, and any drift is
// a correctness regression of the emulator or the experiment grid,
// never host noise. The comparison is therefore ==, and whatever keeps
// a figure from being compared fails it as well: a row, a derived key
// or the service object present on one side only, or a different
// configuration. The host worker count is not part of the
// configuration: every row books its points in replay order, so
// reports agree at any -parallel (DESIGN.md §10); the header prints it
// as provenance only.

// Comparison is the result of either of packdiff's comparators.
type Comparison interface {
	WriteMarkdown(io.Writer)
	WriteTSV(io.Writer)
	OK() bool
}

// Compare reads two perf reports, or two files of perfbench runs, and
// compares them; the kind is told by the first line of each file, and
// the benchmark's bounds come from the BENCHMARK.json nearest the
// working directory. An error means the inputs cannot be compared.
func Compare(oldPath, newPath string) (Comparison, error) {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	if runs := IsPerfRuns(oldData); runs != IsPerfRuns(newData) {
		return nil, errors.New("one input holds perfbench runs and the other does not")
	} else if !runs {
		oldRep, err := LoadPerfReport(oldPath)
		if err != nil {
			return nil, err
		}
		newRep, err := LoadPerfReport(newPath)
		if err != nil {
			return nil, err
		}
		d := DiffReports(oldRep, newRep)
		d.OldPath, d.NewPath = oldPath, newPath
		return d, nil
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	spec, err := FindBenchmarkSpec(wd)
	if err != nil {
		return nil, err
	}
	oldRuns, err := ParsePerfRuns(oldData)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", oldPath, err)
	}
	newRuns, err := ParsePerfRuns(newData)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", newPath, err)
	}
	d, err := CompareRuns(spec, oldRuns, newRuns)
	if err != nil {
		return nil, err
	}
	d.OldPath, d.NewPath = oldPath, newPath
	return d, nil
}

// SchemaVersion extracts the numeric version of a packbench-perf
// schema marker ("packbench-perf/v3" -> 3).
func SchemaVersion(schema string) (int, error) {
	const prefix = "packbench-perf/v"
	if !strings.HasPrefix(schema, prefix) {
		return 0, fmt.Errorf("not a packbench-perf schema: %q", schema)
	}
	v, err := strconv.Atoi(schema[len(prefix):])
	if err != nil || v < 1 {
		return 0, fmt.Errorf("malformed schema version: %q", schema)
	}
	return v, nil
}

// LoadPerfReport reads a perf report of any schema version up to the
// current one. Fields a version lacks read as their zero values, and
// fields this version dropped are ignored, so packreport can still
// plot the older baselines; DiffReports compares v8 reports only.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	v, err := SchemaVersion(r.Schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	maxKnown, _ := SchemaVersion(PerfSchema)
	if v > maxKnown {
		return nil, fmt.Errorf("%s: schema %s is newer than this tool understands (%s)", path, r.Schema, PerfSchema)
	}
	if len(r.Experiments) == 0 {
		return nil, fmt.Errorf("%s: report has no experiment rows", path)
	}
	return &r, nil
}

// RowDiff is the comparison of one row present in both reports.
type RowDiff struct {
	Old, New ExperimentPerf
	// Drift lists every figure of the row that differs, as
	// "name old→new".
	Drift []string
}

// Diff is the full comparison of two perf reports.
type Diff struct {
	Old, New         *PerfReport
	OldPath, NewPath string
	// Rows covers the experiment ids present in both reports, in the
	// new report's order, followed by the total.
	Rows []RowDiff
	// Failures lists why the reports do not match: drifted rows and
	// service figures, and everything that could not be compared.
	Failures []string
	// ServiceCompared records that both reports carried a service
	// object under the same configuration.
	ServiceCompared bool
}

// OK reports whether every figure of both reports was compared and
// matched.
func (d *Diff) OK() bool { return len(d.Failures) == 0 }

// ExperimentRows counts the compared experiment rows (the total
// excluded).
func (d *Diff) ExperimentRows() int { return max(len(d.Rows)-1, 0) }

func (d *Diff) fail(format string, args ...any) {
	d.Failures = append(d.Failures, fmt.Sprintf(format, args...))
}

// DiffReports compares two v8 perf reports exactly.
func DiffReports(old, new *PerfReport) *Diff {
	d := &Diff{Old: old, New: new}
	if old.Schema != PerfSchema || new.Schema != PerfSchema {
		d.fail("schemas %s and %s: packdiff compares %s reports only (packreport plots the older baselines)",
			old.Schema, new.Schema, PerfSchema)
		return d
	}
	if old.Quick != new.Quick || old.Seed != new.Seed {
		d.fail("the reports ran different configurations (quick %v/%v, seed %d/%d)",
			old.Quick, new.Quick, old.Seed, new.Seed)
	}

	oldRows := make(map[string]ExperimentPerf, len(old.Experiments))
	for _, e := range old.Experiments {
		oldRows[e.ID] = e
	}
	for _, e := range new.Experiments {
		o, ok := oldRows[e.ID]
		if !ok {
			d.fail("row %s is not in the baseline", e.ID)
			continue
		}
		delete(oldRows, e.ID)
		d.Rows = append(d.Rows, d.diffRow(o, e))
	}
	for _, id := range slices.Sorted(maps.Keys(oldRows)) {
		d.fail("baseline row %s is missing from the new report", id)
	}
	if len(d.Rows) == 0 {
		d.fail("the reports share no experiment row")
	}
	d.Rows = append(d.Rows, d.diffRow(old.Total, new.Total))

	switch {
	case old.Service == nil && new.Service == nil:
	case new.Service == nil:
		d.fail("the new report lacks the baseline's service object")
	case old.Service == nil:
		d.fail("the baseline has no service object to compare the new one with")
	default:
		d.diffService(old.Service, new.Service)
	}
	return d
}

// drift appends "name old→new" to out when the two values differ.
func drift(out []string, name string, o, n any) []string {
	if o != n {
		out = append(out, fmt.Sprintf("%s %v→%v", name, o, n))
	}
	return out
}

// diffRow compares every figure of one row and books the drift as a
// failure.
func (d *Diff) diffRow(o, n ExperimentPerf) RowDiff {
	var out []string
	out = drift(out, "tables", o.Tables, n.Tables)
	out = drift(out, "rows", o.Rows, n.Rows)
	out = drift(out, "machine_runs", o.MachineRuns, n.MachineRuns)
	out = drift(out, "virtual_ms", o.VirtualMS, n.VirtualMS)
	keys := slices.Sorted(maps.Keys(o.Derived))
	for _, k := range slices.Sorted(maps.Keys(n.Derived)) {
		if _, ok := o.Derived[k]; !ok {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		ov, inOld := o.Derived[k]
		nv, inNew := n.Derived[k]
		switch {
		case !inNew:
			out = append(out, "derived "+k+" missing")
		case !inOld:
			out = append(out, "derived "+k+" not in the baseline")
		default:
			out = drift(out, "derived "+k, ov, nv)
		}
	}
	for _, s := range out {
		d.fail("%s: %s", n.ID, s)
	}
	return RowDiff{Old: o, New: n, Drift: out}
}

// diffService compares the two service objects field by field. The
// seed, request count and pool shape are the soak's configuration; the
// arrival rate is not (packbench derives it from the classes' service
// times), so it is compared like every other figure.
func (d *Diff) diffService(o, n *ServicePerf) {
	if o.Seed != n.Seed || o.Requests != n.Requests || o.Workers != n.Workers || o.Queue != n.Queue {
		d.fail("the service objects ran different configurations (seed %d/%d, requests %d/%d, workers %d/%d, queue %d/%d)",
			o.Seed, n.Seed, o.Requests, n.Requests, o.Workers, n.Workers, o.Queue, n.Queue)
		return
	}
	d.ServiceCompared = true
	var out []string
	out = drift(out, "rate_per_sec", o.RatePerSec, n.RatePerSec)
	out = drift(out, "admitted", o.Admitted, n.Admitted)
	out = drift(out, "overloaded", o.Overloaded, n.Overloaded)
	out = drift(out, "duration_us", o.DurationUS, n.DurationUS)
	out = drift(out, "throughput_rps", o.ThroughputRPS, n.ThroughputRPS)
	out = drift(out, "p50_us", o.P50US, n.P50US)
	out = drift(out, "p99_us", o.P99US, n.P99US)
	out = drift(out, "p999_us", o.P999US, n.P999US)
	out = drift(out, "sum_us", o.SumUS, n.SumUS)
	oc := make(map[string]ServiceClassPerf, len(o.Classes))
	for _, c := range o.Classes {
		oc[c.Name] = c
	}
	for _, c := range n.Classes {
		oldC, ok := oc[c.Name]
		if !ok {
			out = append(out, "class "+c.Name+" not in the baseline")
			continue
		}
		delete(oc, c.Name)
		out = drift(out, "class "+c.Name+" weight", oldC.Weight, c.Weight)
		out = drift(out, "class "+c.Name+" service_us", oldC.ServiceUS, c.ServiceUS)
		out = drift(out, "class "+c.Name+" arrivals", oldC.Arrivals, c.Arrivals)
	}
	for _, name := range slices.Sorted(maps.Keys(oc)) {
		out = append(out, "class "+name+" missing")
	}
	for _, s := range out {
		d.fail("service: %s", s)
	}
}

// WriteMarkdown renders the comparison as GitHub-flavoured markdown.
func (d *Diff) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## packdiff: %s → %s (%s, quick=%v, seed=%d, parallel=%d)\n\n",
		orReport(d.OldPath), orReport(d.NewPath), d.New.Schema, d.New.Quick, d.New.Seed, d.New.Parallel)
	if d.OK() {
		service := ""
		if d.ServiceCompared {
			service = " and the service object"
		}
		fmt.Fprintf(w, "- **exact match**: %d experiment rows, the total%s\n", d.ExperimentRows(), service)
	} else {
		fmt.Fprintf(w, "- **%d difference(s)**: a correctness regression of the cost model, or a grid change that needs a new baseline\n", len(d.Failures))
		for _, f := range d.Failures {
			fmt.Fprintf(w, "  - %s\n", f)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| experiment | tables | rows | machine runs | virtual ms | exact |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|:--|")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %v | %s |\n",
			r.New.ID, r.New.Tables, r.New.Rows, r.New.MachineRuns, r.New.VirtualMS, r.exactCell())
	}
}

// WriteTSV renders the row table as tab-separated values.
func (d *Diff) WriteTSV(w io.Writer) {
	fmt.Fprintln(w, "experiment\ttables\trows\tmachine_runs\tvirtual_old_ms\tvirtual_new_ms\texact\tdrift")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\t%v\t%v\t%s\n", r.New.ID, r.New.Tables, r.New.Rows, r.New.MachineRuns,
			r.Old.VirtualMS, r.New.VirtualMS, len(r.Drift) == 0, strings.Join(r.Drift, "; "))
	}
}

func (r RowDiff) exactCell() string {
	if len(r.Drift) == 0 {
		return "yes"
	}
	return "DRIFT(" + strings.Join(r.Drift, "; ") + ")"
}

func orReport(path string) string {
	if path == "" {
		return "report"
	}
	return path
}
