// Package report renders packbench perf baselines (BENCH_*.json,
// schema packbench-perf/v1 through v8) into one self-contained static
// HTML dashboard: virtual-time and derived-telemetry trends across
// baselines, the paper's scheme-crossover model, and the
// serving-latency trend when a baseline carries the service soak
// object. The output is deterministic byte-for-byte for the same
// inputs (no timestamps, sorted iteration), which is what makes it
// golden-testable.
package report

import (
	"fmt"
	"path/filepath"
	"strings"

	"packunpack/internal/bench"
)

// File is one loaded baseline: the parsed report plus the short label
// the dashboard uses on axes ("pr4" for BENCH_pr4.json).
type File struct {
	Label  string
	Path   string
	Schema int // schema version number (1..), 0 if unparseable suffix
	Perf   bench.PerfReport
}

// Load reads one BENCH_*.json baseline. Every schema era v1–v8
// decodes into the current bench.PerfReport: fields a vintage lacks
// read as zero values, which the renderer treats as "not measured"
// rather than zero measurements, and fields v8 dropped (the wall-clock
// rows and objects) are ignored.
func Load(path string) (*File, error) {
	perf, err := bench.LoadPerfReport(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	v, _ := bench.SchemaVersion(perf.Schema)
	return &File{Label: labelFor(path), Path: path, Schema: v, Perf: *perf}, nil
}

// LoadAll loads the given baselines in order. Order is meaningful: the
// trend charts read left-to-right as the sequence of PRs.
func LoadAll(paths []string) ([]*File, error) {
	files := make([]*File, 0, len(paths))
	for _, p := range paths {
		f, err := Load(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// labelFor derives the short axis label from a baseline path:
// "BENCH_pr4.json" → "pr4"; anything else keeps its stem.
func labelFor(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	return strings.TrimPrefix(name, "BENCH_")
}
