package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadFixtures(t *testing.T) []*File {
	t.Helper()
	files, err := LoadAll([]string{
		filepath.Join("testdata", "BENCH_v1.json"),
		filepath.Join("testdata", "BENCH_v4.json"),
		filepath.Join("testdata", "BENCH_v6.json"),
		filepath.Join("testdata", "BENCH_v7.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGoldenDashboard pins the full rendered page — every chart path
// the fixtures can reach (v1 with bare rows, v4 with derived telemetry,
// v6 with the plan-cache experiment, v7 with the service soak object;
// the wall-clock fields of v4–v7 are ignored) — against a golden file,
// which is also the determinism proof: any nondeterminism in map
// iteration or float formatting shows up as golden drift.
func TestGoldenDashboard(t *testing.T) {
	files := loadFixtures(t)
	var buf bytes.Buffer
	if err := WriteHTML(&buf, "golden dashboard", files); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dashboard.golden.html")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("dashboard drifted from golden (run with -update if intended).\ngot %d bytes, want %d", buf.Len(), len(want))
	}

	var again bytes.Buffer
	if err := WriteHTML(&again, "golden dashboard", files); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same inputs differ — the dashboard must be deterministic")
	}
}

// TestGoldenDashboardSections checks the golden page carries every
// section the fixtures unlock, so a silently-skipped section cannot
// hide behind an -update run.
func TestGoldenDashboardSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHTML(&buf, "golden dashboard", loadFixtures(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<h2>Run overview</h2>",
		"<h2>Suite cost trends</h2>",
		"<h2>Derived telemetry trends</h2>",
		"<h2>Scheme crossover model</h2>",
		"<h2>Serving traffic</h2>",
		"prefers-color-scheme: dark", // dark palette is selected, not flipped
		"Table view",                 // every chart ships its numbers
		"var(--s3)",                  // three-series charts use the full slot order
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// v1 predates derived telemetry: its trend cells must render as a
	// gap ("—"), never as a zero measurement.
	if !strings.Contains(out, "<td>v1</td>") && !strings.Contains(out, ">v1<") {
		t.Error("v1 fixture missing from overview")
	}
	if !strings.Contains(out, "—") {
		t.Error("missing-measure gap marker absent for the v1 baseline")
	}
}

// TestRendersRepoBaselines loads every committed BENCH_*.json at the
// repo root — the real schema-era sequence v1..v8 — and renders them,
// proving the loader is tolerant of each vintage as shipped, not just
// of the hand-written fixtures.
func TestRendersRepoBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected committed baselines at the repo root, found %v", paths)
	}
	sort.Strings(paths)
	files, err := LoadAll(paths)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, "repo baselines", files); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, f := range files {
		if !strings.Contains(out, ">"+f.Label+"<") {
			t.Errorf("baseline %s missing from dashboard", f.Label)
		}
	}
	if !strings.Contains(out, "Serving traffic") {
		t.Error("the v7 and v8 baselines carry a service object; the serving-traffic section should render")
	}
}

// TestLoadRejectsForeignJSON: a JSON file that is not a packbench perf
// report must fail loudly, not render an empty dashboard row.
func TestLoadRejectsForeignJSON(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "other.json")
	if err := os.WriteFile(p, []byte(`{"schema":"something-else/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil {
		t.Fatal("foreign schema accepted")
	}
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(bad, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestLabels pins the path → axis-label derivation.
func TestLabels(t *testing.T) {
	for path, want := range map[string]string{
		"BENCH_pr4.json":      "pr4",
		"/a/b/BENCH_pr8.json": "pr8",
		"custom.json":         "custom",
	} {
		if got := labelFor(path); got != want {
			t.Errorf("labelFor(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestFmtNum pins the adaptive formatting the axes and tables share.
func TestFmtNum(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5"},
		{0.9917, "0.992"},
		{1.715, "1.72"},
		{42.25, "42.25"},
		{8143.0625, "8143"},
	} {
		if got := fmtNum(tc.v); got != tc.want {
			t.Errorf("fmtNum(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
