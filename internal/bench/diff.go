package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"packunpack/internal/stats"
)

// This file is the perf-report comparator behind cmd/packdiff. The
// comparison rule splits the report's metrics into two classes:
//
//   - Virtual metrics (virtual_ms and the derived registry means) are
//     exact replays of the cost model: two runs of the same grid at
//     the same -parallel class must agree bit-for-bit. Any drift is a
//     correctness regression in the emulator or the experiment grid —
//     never host noise — so it is compared with ==, not a tolerance.
//   - Wall-clock and allocation figures are host measurements. They
//     are compared per row against a relative threshold and, when both
//     reports carry raw samples (schema v4), a Mann–Whitney U test
//     decides whether the delta is distinguishable from noise.
//
// Note the -parallel caveat: worker completion order perturbs the
// floating-point accumulation of virtual_ms, and the collect dry-pass
// over-collects on data-dependent generators (table1's crossover
// search), so exact comparison is only guaranteed between reports
// generated at -parallel 1. The perf gate pins that.

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

// LoadPerfReport reads and validates a perf report of any schema
// version v1–v6. Fields a version lacks read as their zero values
// (v1 has no sched, v1–v3 no samples/env/wall_stats, v1–v4 no
// plan_repeat, v1–v5 no real_world).
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

// DiffOptions configures the noisy-metric comparison. The virtual
// comparison is not configurable: it is always exact.
type DiffOptions struct {
	// Threshold is the relative wall/alloc delta |new/old - 1| above
	// which a row is flagged (default 0.10).
	Threshold float64
	// Alpha is the Mann–Whitney significance level: when both rows
	// carry ≥2 samples, a flagged wall delta must also have p <= Alpha
	// to count as a regression/improvement (default 0.05).
	Alpha float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.10
	}
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	return o
}

// RowDiff is the comparison of one experiment row present in both
// reports.
type RowDiff struct {
	ID string

	// Wall comparison (noisy).
	OldWallMS, NewWallMS float64
	// WallDelta is (new-old)/old; NaN when old is zero.
	WallDelta float64
	// P is the Mann–Whitney two-sided p-value over the rows' raw wall
	// samples; NaN when either side lacks ≥2 samples (pre-v4 reports).
	P float64
	// WallFlagged: the delta exceeds the threshold and, when P is
	// available, is significant at alpha.
	WallFlagged bool

	// Allocation comparison (noisy, but far more stable than wall).
	OldAllocs, NewAllocs uint64
	AllocDelta           float64
	AllocFlagged         bool

	// Virtual comparison (exact).
	OldVirtualMS, NewVirtualMS float64
	VirtualMatch               bool
	// DerivedDrift names derived metrics present in both rows whose
	// values differ (bit-for-bit comparison).
	DerivedDrift []string
	// DerivedSkew names derived keys present in only one of the two
	// rows — schema/telemetry evolution (e.g. v6 added queue_depth_p99,
	// park_rate), warned about and skipped, never a gate failure.
	DerivedSkew []string

	// StructureDrift notes row-shape changes (tables, rows,
	// machine_runs) — informational, since a PR may legitimately grow
	// the grid, but worth surfacing next to the timing deltas.
	StructureDrift []string

	// Incomparable marks a row whose exact comparison was skipped
	// because the two reports do not measure the same thing: the
	// aggregate "all" row when the experiment grids differ (a newer
	// schema typically adds experiments, so its total legitimately
	// includes work the baseline never ran). Incomparable rows never
	// fail the virtual gate and never flag wall regressions.
	Incomparable bool
}

// VirtualOK reports whether the row's exact-class metrics all match.
// Incomparable rows pass vacuously: their mismatch is schema/grid
// skew, not emulator drift.
func (r RowDiff) VirtualOK() bool {
	return r.Incomparable || (r.VirtualMatch && len(r.DerivedDrift) == 0)
}

// Diff is the full comparison of two perf reports.
type Diff struct {
	Old, New         *PerfReport
	OldPath, NewPath string
	Opt              DiffOptions
	// Rows covers ids present in both reports, in the new report's
	// order (the total line "all" included).
	Rows []RowDiff
	// OnlyOld / OnlyNew list ids present in a single report.
	OnlyOld, OnlyNew []string
	// EnvDiffers notes that the two reports were measured under
	// different host environments, making wall comparisons suspect.
	EnvDiffers bool
	// SkewNotes lists schema-evolution differences that were warned
	// about and skipped rather than compared: fields one schema version
	// lacks (e.g. v5's plan_repeat against a v4 baseline) and aggregate
	// rows over differing experiment grids.
	SkewNotes []string
	// ServiceDrift lists exact-metric mismatches of the v7 service
	// object when both reports carry one under the same configuration.
	// Service figures are virtual-time and seed-deterministic, so any
	// entry here is a correctness regression of the serving layer or
	// the cost model — it fails the gate like per-row virtual drift.
	ServiceDrift []string
	// ServiceCompared records that both reports carried a service
	// object under the same configuration, so the objects were compared
	// field by field (an empty ServiceDrift then means an exact match).
	ServiceCompared bool
}

// VirtualMismatches counts rows whose exact-class metrics drifted.
func (d *Diff) VirtualMismatches() int {
	n := 0
	for _, r := range d.Rows {
		if !r.VirtualOK() {
			n++
		}
	}
	return n
}

// WallRegressions counts flagged rows that got slower.
func (d *Diff) WallRegressions() int {
	n := 0
	for _, r := range d.Rows {
		if r.WallFlagged && r.WallDelta > 0 {
			n++
		}
	}
	return n
}

// relDelta returns (new-old)/old, NaN when old is zero and new isn't.
func relDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.NaN()
	}
	return (new - old) / old
}

// envOf summarizes the comparable environment of a report, falling
// back to the v1–v3 top-level fields when the env object is absent.
func envOf(r *PerfReport) string {
	if r.Env != nil {
		return fmt.Sprintf("%s %s/%s cpu=%d maxprocs=%d", r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.NumCPU, r.Env.GOMAXPROCS)
	}
	return fmt.Sprintf("%s cpu=%d", r.GoVersion, r.NumCPU)
}

// DiffReports compares two perf reports under the exact-vs-noisy rule.
func DiffReports(old, new *PerfReport, opt DiffOptions) *Diff {
	opt = opt.withDefaults()
	d := &Diff{Old: old, New: new, Opt: opt}
	d.EnvDiffers = envOf(old) != envOf(new) ||
		old.Quick != new.Quick || old.Seed != new.Seed

	oldRows := make(map[string]ExperimentPerf, len(old.Experiments)+1)
	for _, e := range old.Experiments {
		oldRows[e.ID] = e
	}
	oldRows[old.Total.ID] = old.Total

	newIDs := make(map[string]bool, len(new.Experiments)+1)
	for _, e := range new.Experiments {
		newIDs[e.ID] = true
		oe, ok := oldRows[e.ID]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, e.ID)
			continue
		}
		d.Rows = append(d.Rows, diffRow(oe, e, opt))
	}
	for _, e := range old.Experiments {
		if !newIDs[e.ID] {
			d.OnlyOld = append(d.OnlyOld, e.ID)
		}
	}

	// The total row sums per-experiment figures, so it is only
	// exact-comparable when both reports ran the same grid. A schema
	// bump that adds a canonical experiment (v5 added planrepeat) makes
	// the totals legitimately differ: warn and skip instead of failing
	// the gate — every shared per-experiment row is still compared
	// exactly.
	gridsDiffer := len(d.OnlyOld) > 0 || len(d.OnlyNew) > 0
	newIDs[new.Total.ID] = true
	if oe, ok := oldRows[new.Total.ID]; ok {
		r := diffRow(oe, new.Total, opt)
		if gridsDiffer {
			r.Incomparable = true
			r.WallFlagged, r.AllocFlagged = false, false
			d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
				"aggregate %q row skipped: the experiment grids differ (%d id(s) only in old, %d only in new), so the totals do not sum the same work",
				new.Total.ID, len(d.OnlyOld), len(d.OnlyNew)))
		}
		d.Rows = append(d.Rows, r)
	} else {
		d.OnlyNew = append(d.OnlyNew, new.Total.ID)
	}
	if !newIDs[old.Total.ID] {
		d.OnlyOld = append(d.OnlyOld, old.Total.ID)
	}

	// Fields one schema version lacks are skew, not drift: warn and
	// skip. plan_repeat (v5) is the wall-clock plan-cache amortization —
	// a host measurement, so even two v5 reports are not exact-compared
	// on it; its presence mismatch is still worth a note.
	if ov, nv := old.PlanRepeat != nil, new.PlanRepeat != nil; ov != nv {
		which := "new"
		if ov {
			which = "old"
		}
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"plan_repeat object present only in the %s report (schema v5 field) — skipped, not compared", which))
	}
	// real_world (v6) is the real-backend telemetry curve — pure host
	// wall measurements, so like plan_repeat it is never numerically
	// compared; a presence mismatch still deserves a note.
	if ov, nv := old.RealWorld != nil, new.RealWorld != nil; ov != nv {
		which := "new"
		if ov {
			which = "old"
		}
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"real_world object present only in the %s report (schema v6 field) — skipped, not compared", which))
	}
	// service (v7) is the serving-layer soak. Unlike plan_repeat and
	// real_world it is deterministic virtual time, so when both sides
	// carry it under the same configuration it is compared exactly; a
	// presence or configuration mismatch is skew, warned and skipped.
	switch ov, nv := old.Service != nil, new.Service != nil; {
	case ov != nv:
		which := "new"
		if ov {
			which = "old"
		}
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"service object present only in the %s report (schema v7 field) — skipped, not compared", which))
	case ov && nv:
		d.diffService(old.Service, new.Service)
	}
	// Derived keys one side lacks are telemetry evolution (v6 added
	// queue_depth_p99/park_rate to instrumented rows), not drift: one
	// aggregated note instead of a per-row gate failure.
	skewKeys := map[string]bool{}
	for _, r := range d.Rows {
		for _, k := range r.DerivedSkew {
			skewKeys[k] = true
		}
	}
	if len(skewKeys) > 0 {
		keys := make([]string, 0, len(skewKeys))
		for k := range skewKeys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"derived key(s) present on one side only — skipped, not compared: %s", strings.Join(keys, ", ")))
	}
	if old.Schema != new.Schema {
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"schema skew: %s vs %s — fields the older schema lacks read as zero and are skipped", old.Schema, new.Schema))
	}
	return d
}

// diffService exact-compares two v7 service objects. A configuration
// mismatch (different seed, load, or pool shape) makes them
// incomparable — skew, not drift. The arrival rate is not
// configuration: packbench derives it from the classes' service times,
// so it moves whenever they do, and it is compared as drift.
func (d *Diff) diffService(old, new *ServicePerf) {
	if old.Seed != new.Seed || old.Requests != new.Requests ||
		old.Workers != new.Workers || old.Queue != new.Queue {
		d.SkewNotes = append(d.SkewNotes, fmt.Sprintf(
			"service objects ran different configurations (seed %d/%d, requests %d/%d, workers %d/%d, queue %d/%d) — skipped, not compared",
			old.Seed, new.Seed, old.Requests, new.Requests, old.Workers, new.Workers, old.Queue, new.Queue))
		return
	}
	d.ServiceCompared = true
	drift := func(name string, ov, nv any) {
		if ov != nv {
			d.ServiceDrift = append(d.ServiceDrift, fmt.Sprintf("%s %v→%v", name, ov, nv))
		}
	}
	drift("rate_per_sec", old.RatePerSec, new.RatePerSec)
	drift("admitted", old.Admitted, new.Admitted)
	drift("overloaded", old.Overloaded, new.Overloaded)
	drift("duration_us", old.DurationUS, new.DurationUS)
	drift("p50_us", old.P50US, new.P50US)
	drift("p99_us", old.P99US, new.P99US)
	drift("p999_us", old.P999US, new.P999US)
	drift("sum_us", old.SumUS, new.SumUS)
	oc := make(map[string]ServiceClassPerf, len(old.Classes))
	for _, c := range old.Classes {
		oc[c.Name] = c
	}
	for _, c := range new.Classes {
		o, ok := oc[c.Name]
		if !ok {
			d.ServiceDrift = append(d.ServiceDrift, fmt.Sprintf("class %s only in new", c.Name))
			continue
		}
		drift("class "+c.Name+" service_us", o.ServiceUS, c.ServiceUS)
		drift("class "+c.Name+" arrivals", o.Arrivals, c.Arrivals)
		delete(oc, c.Name)
	}
	for name := range oc {
		d.ServiceDrift = append(d.ServiceDrift, fmt.Sprintf("class %s only in old", name))
	}
	sort.Strings(d.ServiceDrift)
}

func diffRow(old, new ExperimentPerf, opt DiffOptions) RowDiff {
	r := RowDiff{
		ID:           new.ID,
		OldWallMS:    old.WallMS,
		NewWallMS:    new.WallMS,
		WallDelta:    relDelta(old.WallMS, new.WallMS),
		P:            math.NaN(),
		OldAllocs:    old.Allocs,
		NewAllocs:    new.Allocs,
		AllocDelta:   relDelta(float64(old.Allocs), float64(new.Allocs)),
		OldVirtualMS: old.VirtualMS,
		NewVirtualMS: new.VirtualMS,
		VirtualMatch: old.VirtualMS == new.VirtualMS,
	}

	if len(old.WallSamplesMS) >= 2 && len(new.WallSamplesMS) >= 2 {
		r.P = stats.MannWhitneyU(old.WallSamplesMS, new.WallSamplesMS).P
	}
	overThreshold := !math.IsNaN(r.WallDelta) && math.Abs(r.WallDelta) > opt.Threshold
	if math.IsNaN(r.P) {
		r.WallFlagged = overThreshold
	} else {
		r.WallFlagged = overThreshold && r.P <= opt.Alpha
	}
	r.AllocFlagged = !math.IsNaN(r.AllocDelta) && math.Abs(r.AllocDelta) > opt.Threshold

	// Exact comparison of the derived means over the keys both rows
	// carry. Keys present on one side only are grid/schema evolution,
	// not emulator drift (e.g. a v2 report has no derived object at
	// all), so they do not fail the gate.
	for name, ov := range old.Derived {
		if nv, ok := new.Derived[name]; ok {
			if nv != ov {
				r.DerivedDrift = append(r.DerivedDrift, name)
			}
		} else {
			r.DerivedSkew = append(r.DerivedSkew, name)
		}
	}
	for name := range new.Derived {
		if _, ok := old.Derived[name]; !ok {
			r.DerivedSkew = append(r.DerivedSkew, name)
		}
	}
	sort.Strings(r.DerivedDrift)
	sort.Strings(r.DerivedSkew)

	if old.Tables != new.Tables {
		r.StructureDrift = append(r.StructureDrift, fmt.Sprintf("tables %d→%d", old.Tables, new.Tables))
	}
	if old.Rows != new.Rows {
		r.StructureDrift = append(r.StructureDrift, fmt.Sprintf("rows %d→%d", old.Rows, new.Rows))
	}
	if old.MachineRuns != new.MachineRuns {
		r.StructureDrift = append(r.StructureDrift, fmt.Sprintf("machine_runs %d→%d", old.MachineRuns, new.MachineRuns))
	}
	return r
}

// formatting helpers shared by the two renderers.

func fmtDelta(d float64) string {
	if math.IsNaN(d) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", d*100)
}

func fmtP(p float64) string {
	if math.IsNaN(p) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", p)
}

func (r RowDiff) virtualCell() string {
	if r.Incomparable {
		return "skipped (grids differ)"
	}
	if r.VirtualOK() {
		return "ok"
	}
	var parts []string
	if !r.VirtualMatch {
		parts = append(parts, fmt.Sprintf("virtual_ms %v→%v", r.OldVirtualMS, r.NewVirtualMS))
	}
	if len(r.DerivedDrift) > 0 {
		parts = append(parts, "derived: "+strings.Join(r.DerivedDrift, " "))
	}
	return "DRIFT(" + strings.Join(parts, "; ") + ")"
}

// WriteMarkdown renders the delta table as GitHub-flavoured markdown.
func (d *Diff) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## packdiff: %s → %s\n\n", d.describe(d.Old, d.OldPath), d.describe(d.New, d.NewPath))
	if vm := d.VirtualMismatches(); vm == 0 {
		fmt.Fprintf(w, "- virtual metrics: **exact match** (%d rows)\n", len(d.Rows))
	} else {
		fmt.Fprintf(w, "- virtual metrics: **%d of %d rows DRIFTED** — emulator correctness regression\n", vm, len(d.Rows))
	}
	fmt.Fprintf(w, "- wall threshold ±%.0f%%, alpha %.2f; flagged regressions: %d\n",
		d.Opt.Threshold*100, d.Opt.Alpha, d.WallRegressions())
	if d.EnvDiffers {
		fmt.Fprintf(w, "- **environments differ** — wall/alloc deltas may reflect the host, not the code\n")
	}
	if len(d.ServiceDrift) > 0 {
		fmt.Fprintf(w, "- service metrics: **DRIFTED** — %s\n", strings.Join(d.ServiceDrift, "; "))
	} else if d.ServiceCompared {
		fmt.Fprintf(w, "- service metrics: exact match (p50/p99/p999 %d/%d/%d µs)\n",
			d.New.Service.P50US, d.New.Service.P99US, d.New.Service.P999US)
	}
	for _, note := range d.SkewNotes {
		fmt.Fprintf(w, "- **skew**: %s\n", note)
	}
	if len(d.OnlyOld) > 0 {
		fmt.Fprintf(w, "- only in old: %s\n", strings.Join(d.OnlyOld, ", "))
	}
	if len(d.OnlyNew) > 0 {
		fmt.Fprintf(w, "- only in new: %s\n", strings.Join(d.OnlyNew, ", "))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| experiment | wall old (ms) | wall new (ms) | Δ wall | p | allocs old | allocs new | Δ allocs | virtual | notes |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|:--|:--|")
	for _, r := range d.Rows {
		var notes []string
		if r.Incomparable {
			notes = append(notes, "grids differ")
		}
		if r.WallFlagged {
			if r.WallDelta > 0 {
				notes = append(notes, "**slower**")
			} else {
				notes = append(notes, "faster")
			}
		}
		if r.AllocFlagged {
			notes = append(notes, "allocs")
		}
		notes = append(notes, r.StructureDrift...)
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %s | %s | %d | %d | %s | %s | %s |\n",
			r.ID, r.OldWallMS, r.NewWallMS, fmtDelta(r.WallDelta), fmtP(r.P),
			r.OldAllocs, r.NewAllocs, fmtDelta(r.AllocDelta), r.virtualCell(),
			strings.Join(notes, ", "))
	}
}

// WriteTSV renders the delta table as tab-separated values for
// spreadsheet or awk consumption.
func (d *Diff) WriteTSV(w io.Writer) {
	fmt.Fprintln(w, "experiment\twall_old_ms\twall_new_ms\twall_delta\tp\twall_flagged\tallocs_old\tallocs_new\talloc_delta\tvirtual_old_ms\tvirtual_new_ms\tvirtual_ok\tincomparable\tderived_drift\tstructure_drift")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t%s\t%v\t%d\t%d\t%s\t%v\t%v\t%v\t%v\t%s\t%s\n",
			r.ID, r.OldWallMS, r.NewWallMS, fmtDelta(r.WallDelta), fmtP(r.P), r.WallFlagged,
			r.OldAllocs, r.NewAllocs, fmtDelta(r.AllocDelta),
			r.OldVirtualMS, r.NewVirtualMS, r.VirtualOK(), r.Incomparable,
			strings.Join(r.DerivedDrift, ","), strings.Join(r.StructureDrift, ","))
	}
}

func (d *Diff) describe(r *PerfReport, path string) string {
	name := path
	if name == "" {
		name = "report"
	}
	samples := r.Samples
	if samples == 0 {
		samples = 1
	}
	return fmt.Sprintf("%s (%s, sched=%s, parallel=%d, samples=%d)",
		name, r.Schema, orDash(r.Scheduler), r.Parallel, samples)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
