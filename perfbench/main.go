// Command perfbench is the repository benchmark. One invocation runs one
// workload from one seed for a fixed window, verifies every output
// against the sequential reference, and prints one JSON result object as
// the last line of standard output:
//
//	perfbench --workload pack-cold --seed 1 --seconds 20 --trace 0
//
// Workloads: pack-cold, pack-warm, serve (see RATIONALE.md).
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 the same ops are replayed with
// outside-in spans and the result carries the per-layer metrics. A
// provenance object (host, build, sizes, working set) is printed on the
// line before the result. Any failed, refused or wrong op makes the
// command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, and nothing heavy precedes it.
var processStart = time.Now()

// cpuAtStart is the host's CPU counters at process start.
var cpuAtStart = cpuTimes()

// setupReps is how many times each run builds its workload anew;
// setup_s is the median, and the last build is measured.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string // "full", or "tiny" for the self-test
	spansDir string
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// tally counts attempted and failed ops; failures are logged to stderr.
type tally struct {
	attempted, failed int
	corruptAt         int // attempt index whose output gets a flipped element; -1 off
}

func (t *tally) shouldCorrupt() bool { return t.attempted == t.corruptAt }

// record counts one op and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", t.attempted-1, err)
		}
		return false
	}
	return true
}

type report struct {
	tally
	metrics map[string]metric
	sources map[string]string // where each metric was measured
	source  string            // the source put records
	prov    provenance
	spans   []spanRecord
}

// srcPath is the source of a metric measured on the workload's own
// (traced) op stream; every other source is a probe.
const srcPath = "path"

func newReport() *report {
	return &report{tally: tally{corruptAt: corruptAttempt}, metrics: map[string]metric{}, sources: map[string]string{},
		source: srcPath, prov: hostProvenance()}
}

// put records a metric as measured by the report's current source.
func (r *report) put(name string, m metric) {
	r.metrics[name] = m
	r.sources[name] = r.source
}

// corruptAttempt is set by the self-test to inject one wrong element.
var corruptAttempt = -1

// setUpRepeatedly runs build setupReps times and records the median
// as setup_s. The first build is timed from process start; the state of
// the last build is the one measured. Between builds, drop releases the
// previous build and its garbage is collected, outside the timer, so
// one build never overlaps the next in memory.
func (r *report) setUpRepeatedly(build func() error, drop func()) error {
	times := make([]float64, setupReps)
	for i := range times {
		t0 := processStart
		if i > 0 {
			drop()
			runtime.GC()
			t0 = time.Now()
		}
		if err := build(); err != nil {
			return err
		}
		times[i] = time.Since(t0).Seconds()
	}
	r.put("setup_s", metric{quantile(times, 0.5), "s"})
	return nil
}

// endToEnd records the metrics of an untraced window: the latency
// quantiles of its host-normalised ops (calib.go), with the wall-time
// quantiles and the kernel's median kept in the provenance.
func (r *report) endToEnd(n *hostNorm) {
	norm := n.finish()
	r.put("op_norm_ms_p50", metric{quantile(norm, 0.5), "ms"})
	r.put("op_norm_ms_p90", metric{quantile(norm, 0.9), "ms"})
	r.put("max_rss_mb", metric{maxRSSMB(), "MB"})
	r.prov.WallOpMS = map[string]float64{"p50": quantile(n.raw, 0.5), "p90": quantile(n.raw, 0.9)}
	r.prov.CalibMS = quantile(n.k, 0.5)
	r.prov.Notes = append(r.prov.Notes, fmt.Sprintf("timed ops: %d, kernel samples: %d", len(norm), len(n.k)))
}

func main() {
	runOnOneCPU() // see onecpu.go for why
	runtime.GOMAXPROCS(1)
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "pack-cold, pack-warm or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its spans (empty: nowhere)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.size = "full"
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 || rep.attempted == 0 {
		os.Exit(1)
	}
}

func run(cfg runConfig) (*report, error) {
	var rep *report
	var err error
	switch cfg.workload {
	case "pack-cold":
		rep, err = runPack(cfg, false)
	case "pack-warm":
		rep, err = runPack(cfg, true)
	case "serve":
		rep, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want pack-cold, pack-warm or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.prov.Workload, rep.prov.Seed, rep.prov.Seconds, rep.prov.Trace = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	rep.prov.HostStealFrac = stealShare(cpuAtStart, cpuTimes())
	if cfg.trace {
		name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
		if err := writeSpans(cfg.spansDir, name, rep.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// endToEndMetrics are what an untraced run reports, on every workload.
var endToEndMetrics = []string{"setup_s", "op_norm_ms_p50", "op_norm_ms_p90", "max_rss_mb"}

// perLayerMetrics are what a traced run reports, on every workload;
// RATIONALE.md maps each to the layer it measures and the end-to-end
// metric it should move.
var perLayerMetrics = []string{
	"transport.run_us", bRunJoin, bRecvWait, bSend, "transport.msgs_per_op", "transport.kb_per_op",
	bPRS, bA2A,
	bScan, "ranking.scan_ns_per_elem", "ranking.rank_us",
	"pack.pack_us", "pack.unpack_us", bCompose, bPlace, bFingerprint, "pack.compile_ms",
	"pack.plan_hit_rate", "pack.plans_held", "pack.speedup_vs_seq",
	"dist.scatter_us", "dist.gather_us",
	"serve.submit_us", "serve.wake_us", "serve.queue_ms_p50", "serve.queue_ms_p90",
	"serve.service_ms_p50", "serve.service_ms_p90", "serve.util",
	"sim.exp_ms.fig3", "sim.exp_ms.fig4", "sim.exp_ms.fig5", "sim.exp_ms.table1", "sim.exp_ms.table2", "sim.exp_ms.prs",
	"sim.pingpong_us", "sim.run_us",
	"proc.cpu_ms_per_op", "proc.alloc_mb_per_op", "proc.gc_cpu_frac",
	"gen.late_ms_p99",
	"attrib.op_ms", "attrib.unattributed_frac", "attrib.trace_overhead_frac",
}

// emit prints the provenance line and then the result line, which holds
// exactly the metrics of the run's kind.
func emit(w io.Writer, rep *report) error {
	names := endToEndMetrics
	if rep.prov.Trace {
		names = perLayerMetrics
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	if rep.prov.Trace {
		rep.prov.MetricSources = map[string]string{}
		rep.prov.Bypassed = nil
		for _, n := range names {
			rep.prov.MetricSources[n] = rep.sources[n]
			if rep.sources[n] != srcPath {
				rep.prov.Bypassed = append(rep.prov.Bypassed, n)
			}
		}
	}
	prov, err := json.Marshal(map[string]any{"provenance": rep.prov})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", prov, res)
	return err
}
