package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes runs packdiff over the committed fixtures and baselines
// and over edited copies: 0 when the inputs match or the change passes,
// 1 when they differ or the change fails, 2 when they cannot be
// compared at all.
func TestExitCodes(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "bench", "testdata")
	parent := filepath.Join(testdata, "perfbench_parent.jsonl")
	change := filepath.Join(testdata, "perfbench_change.jsonl")
	pr16 := filepath.Join("..", "..", "BENCH_pr16.json")
	pr17 := filepath.Join("..", "..", "BENCH_pr17.json")

	raw, err := os.ReadFile(change)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	edited := func(name, old, new string, n int) string {
		t.Helper()
		if !bytes.Contains(raw, []byte(old)) {
			t.Fatalf("fixture lacks %q", old)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, bytes.Replace(raw, []byte(old), []byte(new), n), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"runs pass", []string{parent, change}, 0},
		{"runs regressed", []string{parent, filepath.Join(testdata, "perfbench_regressed.jsonl")}, 1},
		{"more failed ops", []string{parent, edited("failed.jsonl", `"failed":0`, `"failed":3`, 1)}, 1},
		{"traced run", []string{parent, edited("traced.jsonl", `"trace":false`, `"trace":true`, 1)}, 2},
		{"unknown workload", []string{parent, edited("workload.jsonl", `"workload":"serve"`, `"workload":"stream"`, 1)}, 2},
		{"unknown metric", []string{parent, edited("metric.jsonl", `"setup_s"`, `"teardown_s"`, 1)}, 2},
		{"report matches itself", []string{"-format", "tsv", pr17, pr17}, 0},
		{"pre-v8 report", []string{pr16, pr17}, 1},
		{"report against runs", []string{pr17, change}, 2},
		{"one argument", []string{pr17}, 2},
		{"unknown format", []string{"-format", "csv", pr17, pr17}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}

	out := filepath.Join(dir, "delta.md")
	var stdout bytes.Buffer
	if got := run([]string{"-o", out, parent, change}, &stdout, &bytes.Buffer{}); got != 0 {
		t.Fatalf("-o: exit %d", got)
	}
	written, err := os.ReadFile(out)
	if err != nil || !bytes.Equal(written, stdout.Bytes()) || !strings.Contains(stdout.String(), "**pass**") {
		t.Fatalf("-o wrote %q (err %v), stdout %q", written, err, stdout.String())
	}
}
