// Command packbench regenerates the tables and figures of the paper's
// evaluation section on the emulated coarse-grained machine.
//
// Usage:
//
//	packbench -exp all            # everything (DESIGN.md experiment index)
//	packbench -exp fig3           # one artifact: fig3|fig4|fig5|table1|table2|scale|prs|ablate
//	packbench -exp table2 -quick  # trimmed parameter sets (seconds instead of minutes)
//	packbench -parallel 1         # serial sweep (tables and report are identical either way)
//	packbench -json perf.json     # also write the exact report packdiff compares
//	packbench -exp faults -quick  # fault-injection robustness sweep (hidden from 'all')
//	packbench -faults 42:drop=0.01,dup=0.005  # inject faults into any experiment's machines
//	packbench -exp planrepeat -plan-gate  # plan-cache gate (make planbench)
//	packbench -flight-dir crash   # post-mortem flight dump if a sweep machine deadlocks or aborts
//	packbench -list               # show the available experiment ids
//
// All reported times are virtual machine times under the two-level
// cost model (CM-5-flavoured constants), in milliseconds. The -parallel
// flag only changes how fast the host gets there: experiment points run
// on a worker pool, but every virtual measurement, every rendered table
// and every figure of the -json report is the same as the serial run's
// (each report row books its points in the serial replay's order).
// Measured speed is the repo benchmark's business (perfbench, compared
// by packdiff).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"packunpack/internal/bench"
	"packunpack/internal/serve/loadgen"
	"packunpack/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (or 'all', or a comma list)")
	quick := flag.Bool("quick", false, "use trimmed parameter sets")
	seed := flag.Uint64("seed", 1, "seed for the random masks")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outPath := flag.String("out", "", "also write the tables to this file")
	parallel := flag.Int("parallel", runtime.NumCPU(), "host worker pool size for the sweep engine (1 = serial); tables and the -json report are the same at any value")
	jsonPath := flag.String("json", "", "write the exact per-experiment report (schema "+bench.PerfSchema+") to this file")
	traceDir := flag.String("trace-dir", "", "run every experiment point with event tracing on and dump one Chrome trace-event JSON per point into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (samples carry experiment/stage/scheme labels)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	faultsFlag := flag.String("faults", "", "run every measured machine under a deterministic fault-injection plan, 'seed[:name=value,...]' (names: drop,dup,reorder,delay,stall,delaymax,stallmax,timeout,retries), e.g. '42:drop=0.01,dup=0.005'")
	planGate := flag.Bool("plan-gate", false, "fail unless planrepeat's cost-model plan-cache hit rate is >= 0.99 and warm round trips on the real backend take no longer than cold ones (make planbench)")
	flightDir := flag.String("flight-dir", "", "attach the always-on flight recorder to every measured sweep machine and dump its window (Chrome trace + text post-mortem) into this directory if a machine deadlocks or exhausts a fault budget")
	serviceN := flag.Int("service", 0, "run the serving-layer soak with this many seeded arrivals (loadgen DES over internal/serve; deterministic virtual latency quantiles, the service object in -json reports)")
	flag.Parse()

	suite := bench.NewSuite(*quick, *seed)
	suite.Workers = *parallel
	if *faultsFlag != "" {
		f, err := sim.ParseFaults(*faultsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(2)
		}
		suite.Faults = f
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		suite.TraceDir = *traceDir
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		suite.FlightDir = *flightDir
	}

	if *list {
		fmt.Println("available experiments:")
		canonical := make(map[string]bool)
		for _, id := range suite.ExperimentIDs() {
			canonical[id] = true
			fmt.Printf("  %s\n", id)
		}
		// Hidden experiments run by explicit id only and never join
		// "-exp all" or the perf baselines.
		var hidden []string
		for id := range suite.Registry() {
			if !canonical[id] {
				hidden = append(hidden, id)
			}
		}
		sort.Strings(hidden)
		for _, id := range hidden {
			fmt.Printf("  %s (hidden: excluded from 'all')\n", id)
		}
		return
	}

	ids := suite.ExperimentIDs()
	if *exp != "all" {
		ids = nil
		known := suite.Registry()
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := known[id]; !ok {
				fmt.Fprintf(os.Stderr, "packbench: unknown experiment %q (known: %s)\n",
					id, strings.Join(suite.ExperimentIDs(), ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		// LIFO: the profile must be flushed before the file closes.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	var tables []*bench.Table
	perfs := make([]bench.ExperimentPerf, 0, len(ids))
	for _, id := range ids {
		t, perf, err := suite.RunInstrumented(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		tables = append(tables, t...)
		perfs = append(perfs, perf)
	}

	if *planGate {
		hit := suite.PlanHitRate()
		if hit < 0.99 {
			fmt.Fprintf(os.Stderr, "packbench: plan gate failed: plan-cache hit rate %.4f below 0.99\n", hit)
			os.Exit(1)
		}
		fmt.Printf("plan gate passed: plan-cache hit rate %.4f >= 0.99 (cost-model run)\n", hit)
		wc, err := suite.MeasureWarmCold()
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: warm/cold row: %v\n", err)
			os.Exit(1)
		}
		for i, d := range wc.Densities {
			fmt.Printf("warm/cold (real backend, N=2^20, P=2, W=64, CMS PACK + CSS UNPACK): density %.2f — cold %.2f ms, warm %.2f ms\n", d, wc.ColdMS[i], wc.WarmMS[i])
		}
		cold, warm := wc.Sums()
		if err := wc.Gate(); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: plan gate failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("plan gate passed: warm round trips %.2f ms <= cold %.2f ms (min of %d per density)\n", warm, cold, bench.WarmColdTrips)
	}

	// The service soak is the loadgen discrete-event model over
	// internal/serve: byte-verifies the workload mix against the
	// sequential reference, then replays the seeded arrival schedule.
	// Its outputs are deterministic virtual time, reported in the
	// "service" object and exact-compared by packdiff.
	var servicePerf *bench.ServicePerf
	if *serviceN > 0 {
		lr, err := loadgen.Run(loadgen.Config{Seed: *seed, Requests: *serviceN})
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: service soak: %v\n", err)
			os.Exit(1)
		}
		servicePerf = &bench.ServicePerf{
			Seed: lr.Seed, Requests: lr.Requests, Admitted: lr.Admitted,
			Overloaded: lr.Overloaded, Workers: 8, Queue: 256,
			RatePerSec: lr.RatePerSec, DurationUS: lr.DurationUS,
			ThroughputRPS: lr.ThroughputRPS,
			P50US:         lr.P50US, P99US: lr.P99US, P999US: lr.P999US, SumUS: lr.SumUS,
		}
		for _, c := range lr.Classes {
			servicePerf.Classes = append(servicePerf.Classes, bench.ServiceClassPerf{
				Name: c.Name, Weight: c.Weight, ServiceUS: c.ServiceUS, Arrivals: c.Arrivals,
			})
		}
		fmt.Printf("service: %d requests at %.1f req/s — admitted %d, overloaded %d, p50/p99/p999 %d/%d/%d virtual µs (checksum %d)\n",
			lr.Requests, lr.RatePerSec, lr.Admitted, lr.Overloaded, lr.P50US, lr.P99US, lr.P999US, lr.SumUS)
	}

	fmt.Printf("packbench: %s (quick=%v, seed=%d)\n", *exp, *quick, *seed)
	fmt.Printf("machine model: CM-5-flavoured two-level cost model; times are virtual ms\n\n")
	bench.RenderAll(os.Stdout, tables)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderAll(f, tables)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	if *jsonPath != "" {
		report := bench.PerfReport{
			Schema:      bench.PerfSchema,
			Parallel:    *parallel,
			Quick:       *quick,
			Seed:        *seed,
			Experiments: perfs,
			Total:       bench.SumPerf(perfs),
			Service:     servicePerf,
		}
		writeReport(*jsonPath, report)
	}
	fmt.Printf("generated %d tables in %.1fs wall time (parallel=%d)\n", len(tables), time.Since(start).Seconds(), *parallel)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
}

// writeReport marshals the perf report, writes it, and validates the
// written file by reading it back: trajectory tooling diffs these
// reports blind, so a malformed or mis-versioned file should fail
// here, not there.
func writeReport(path string, report bench.PerfReport) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	var check bench.PerfReport
	if err := json.Unmarshal(written, &check); err != nil {
		fmt.Fprintf(os.Stderr, "packbench: written report does not parse: %v\n", err)
		os.Exit(1)
	}
	if check.Schema != bench.PerfSchema {
		fmt.Fprintf(os.Stderr, "packbench: written report carries schema %q, want %q\n", check.Schema, bench.PerfSchema)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (schema %s)\n", path, check.Schema)
}
