package bench

import "fmt"

// PerfSchema identifies the JSON layout of PerfReport, so trajectory
// tooling that diffs BENCH_*.json files across commits can detect
// incompatible changes instead of misreading fields.
//
// v1–v7 carried host wall-clock and allocation figures next to the
// virtual ones: a "<id>/prefetch" row per experiment for the grid
// execution, repeated wall samples of the warm-cache replay (v4), the
// plan_repeat wall amortization object (v5) and the real_world speedup
// curve (v6). packreport still reads those files for history.
//
// v8: the report holds only figures cmd/packdiff compares exactly. Each
// experiment has one row: tables and rows rendered, machine_runs, the
// summed virtual_ms, and the "derived" per-run means of the registry
// metrics (metrics.go). The total sums the rows, and the optional
// "service" object is the deterministic serving-layer soak (v7). Timing
// evidence comes from the repo benchmark (perfbench), whose runs
// packdiff compares separately.
const PerfSchema = "packbench-perf/v8"

// PerfReport is the exact record packbench -json writes: one entry per
// requested experiment plus a summed total. Every figure is a function
// of the experiment grid, the seed and the cost model.
type PerfReport struct {
	Schema      string           `json:"schema"`
	Parallel    int              `json:"parallel"`
	Quick       bool             `json:"quick"`
	Seed        uint64           `json:"seed"`
	Experiments []ExperimentPerf `json:"experiments"`
	Total       ExperimentPerf   `json:"total"`
	// Service is the serving-layer soak report, attached when the run
	// included it (packbench -service); nil otherwise.
	Service *ServicePerf `json:"service,omitempty"`
}

// ServicePerf is the deterministic report of the serving-layer soak:
// the loadgen discrete-event model of internal/serve's admission queue
// under seeded Poisson traffic. Mirrors loadgen.Result's deterministic
// half without importing it (bench stays below the service layer).
type ServicePerf struct {
	Seed          uint64             `json:"seed"`
	Requests      int                `json:"requests"`
	Admitted      int                `json:"admitted"`
	Overloaded    int                `json:"overloaded"`
	Workers       int                `json:"workers"`
	Queue         int                `json:"queue"`
	RatePerSec    float64            `json:"rate_per_sec"`
	DurationUS    uint64             `json:"duration_us"`
	ThroughputRPS float64            `json:"throughput_rps"`
	P50US         int64              `json:"p50_us"`
	P99US         int64              `json:"p99_us"`
	P999US        int64              `json:"p999_us"`
	SumUS         uint64             `json:"sum_us"`
	Classes       []ServiceClassPerf `json:"classes"`
}

// ServiceClassPerf is one workload class of the service soak: its mix
// weight, measured warm virtual service time, and arrival share.
type ServiceClassPerf struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	ServiceUS uint64 `json:"service_us"`
	Arrivals  int    `json:"arrivals"`
}

// ExperimentPerf is one experiment's row of the report ("all" in the
// total).
type ExperimentPerf struct {
	ID string `json:"id"`
	// Tables and Rows count the rendered output.
	Tables int `json:"tables"`
	Rows   int `json:"rows"`
	// MachineRuns counts emulated machine executions.
	MachineRuns int64 `json:"machine_runs"`
	// VirtualMS sums the virtual total time over all machine runs.
	VirtualMS float64 `json:"virtual_ms"`
	// Derived holds per-run means of the registry metrics (metrics.go)
	// over the experiment's machine runs; omitted when it ran none.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// RunInstrumented generates one experiment's tables and its report
// row. The row books each point the experiment's replay is the first
// in the suite to read, in replay order, so it is the same whatever
// the worker count; a point an earlier experiment already read (fig4
// renders fig3's runs) is not booked again.
func (s Suite) RunInstrumented(id string) ([]*Table, ExperimentPerf, error) {
	s.labelExp = id
	row := &ExperimentPerf{ID: id}
	s.row = row
	gen, ok := s.Registry()[id]
	if !ok {
		return nil, ExperimentPerf{}, fmt.Errorf("bench: unknown experiment %q", id)
	}
	tables := gen()
	row.Tables = len(tables)
	for _, t := range tables {
		row.Rows += len(t.Rows)
	}
	for name, sum := range row.Derived {
		row.Derived[name] = sum / float64(row.MachineRuns)
	}
	return tables, *row, nil
}

// book adds one machine run to a row being generated; Derived holds
// running sums until RunInstrumented turns them into per-run means.
func (p *ExperimentPerf) book(m Metrics) {
	p.MachineRuns++
	p.VirtualMS += m.TotalMS
	for name, v := range m.Derived {
		if p.Derived == nil {
			p.Derived = make(map[string]float64, len(m.Derived))
		}
		p.Derived[name] += v
	}
}

// SumPerf folds per-experiment rows into the report's total line.
// Derived metrics are per-run means, so the total carries their
// run-weighted mean rather than a plain sum.
func SumPerf(perfs []ExperimentPerf) ExperimentPerf {
	total := ExperimentPerf{ID: "all"}
	derivedSum := make(map[string]float64)
	for _, p := range perfs {
		total.Tables += p.Tables
		total.Rows += p.Rows
		total.MachineRuns += p.MachineRuns
		total.VirtualMS += p.VirtualMS
		for name, mean := range p.Derived {
			derivedSum[name] += mean * float64(p.MachineRuns)
		}
	}
	if len(derivedSum) > 0 && total.MachineRuns > 0 {
		total.Derived = make(map[string]float64, len(derivedSum))
		for name, sum := range derivedSum {
			total.Derived[name] = sum / float64(total.MachineRuns)
		}
	}
	return total
}
