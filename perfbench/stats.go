package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procSample is a snapshot of the process counters the proc.* metrics
// are deltas of.
type procSample struct {
	cpu    time.Duration // user + system, getrusage
	allocs uint64        // bytes allocated on the heap, runtime/metrics
	gcCPU  float64       // GC CPU seconds, runtime/metrics estimate
}

var procMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

// rusage reads the process's resource usage; getrusage cannot fail for
// RUSAGE_SELF and a valid pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func sampleProc() procSample {
	ru := rusage()
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	ps := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindUint64 {
		ps.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		ps.gcCPU = s[1].Value.Float64()
	}
	return ps
}

// procMetrics turns two samples around a window of ops into per-op
// figures.
func (r *report) procMetrics(a, b procSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	cpu := b.cpu - a.cpu
	r.put("proc.cpu_ms_per_op", metric{ms(cpu) / float64(ops), "ms"})
	r.put("proc.alloc_mb_per_op", metric{float64(b.allocs-a.allocs) / (1 << 20) / float64(ops), "MB"})
	frac := 0.0
	if cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu.Seconds()
	}
	r.put("proc.gc_cpu_frac", metric{frac, "frac"})
}

// maxRSSMB is the peak resident set of the process so far.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// provenance describes the host and build a report came from.
type provenance struct {
	Workload        string            `json:"workload"`
	Seed            uint64            `json:"seed"`
	Seconds         float64           `json:"seconds"`
	Trace           bool              `json:"trace"`
	NProc           int               `json:"nproc"`
	HostCPUs        int               `json:"host_cpus"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	GoVersion       string            `json:"go_version"`
	CPUModel        string            `json:"cpu_model"`
	Caches          map[string]string `json:"caches"`
	Commit          string            `json:"commit"`
	SourceDigest    string            `json:"source_digest"`
	WorkingSetBytes int64             `json:"working_set_bytes"`
	Params          map[string]any    `json:"params"`
	// HostStealFrac is the share of the host's CPU time the hypervisor
	// took from this machine while the run lasted (/proc/stat): a run
	// with a high share measured a host that was not all ours.
	HostStealFrac float64 `json:"host_steal_frac"`
	// WallOpMS holds an untraced run's wall-time latency quantiles, and
	// CalibMS the median time of the calibration kernel the reported
	// latencies are normalised by (calib.go).
	WallOpMS map[string]float64 `json:"wall_op_ms,omitempty"`
	CalibMS  float64            `json:"calib_ms,omitempty"`
	// MetricSources says, for a traced run, where each per-layer metric
	// was measured: "path" is the workload's own traced op stream,
	// anything else a probe or replay (RATIONALE.md describes each).
	MetricSources map[string]string `json:"metric_sources,omitempty"`
	// Bypassed lists the per-layer metrics of a traced run that do not
	// come from the workload's own op stream.
	Bypassed []string `json:"bypassed_layers,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

func hostProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Caches:     map[string]string{},
		Commit:     envOr("PERFBENCH_COMMIT", "unknown"),
	}
	p.SourceDigest = envOr("PERFBENCH_SOURCE_DIGEST", "unknown")
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "processor":
				p.HostCPUs++
			case "model name":
				p.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + string(rune('0'+i)) + "/"
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			break
		}
		level, _ := os.ReadFile(dir + "level")
		typ, _ := os.ReadFile(dir + "type")
		key := "L" + strings.TrimSpace(string(level)) + strings.ToLower(strings.TrimSpace(string(typ)))
		p.Caches[key] = strings.TrimSpace(string(size))
	}
	return p
}

// cpuTimes reads the host's aggregate CPU counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from /proc/stat; nil when they
// cannot be read.
func cpuTimes() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		out[i], err = strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return nil
		}
	}
	return out
}

// stealShare is the steal share of the CPU time between two readings.
func stealShare(a, b []uint64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}
