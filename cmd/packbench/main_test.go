package main

import (
	"flag"
	"strings"
	"testing"

	"packunpack/internal/transport"
)

// TestSimOnlyFlagsFailFastUnderRealBackend pins the flag-hygiene
// contract: every sim-only flag must be rejected, by name, when the
// real backend is selected — never silently ignored.
func TestSimOnlyFlagsFailFastUnderRealBackend(t *testing.T) {
	for name := range simOnlyFlags {
		err := checkBackendFlags(transport.BackendReal, []string{name})
		if err == nil {
			t.Errorf("-%s under -backend real: want error, got nil", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), "sim-only") {
			t.Errorf("-%s error does not name the flag as sim-only: %v", name, err)
		}
	}
}

// TestBackendNeutralFlagsPass: the flags the realbench make target uses
// must stay accepted, and sim runs accept everything.
func TestBackendNeutralFlagsPass(t *testing.T) {
	// Mirrors `make realbench` and the real perf-report CI step.
	for _, set := range [][]string{
		{"backend", "seed", "real-gate"},
		{"backend", "quick", "seed", "json"},
		{"backend", "metrics", "metrics-addr", "samples", "parallel", "out", "cpuprofile", "memprofile"},
	} {
		if err := checkBackendFlags(transport.BackendReal, set); err != nil {
			t.Errorf("real backend rejected %v: %v", set, err)
		}
	}
	if err := checkBackendFlags(transport.BackendSim, []string{"faults", "trace-dir", "plan-gate", "flight-dir", "exp"}); err != nil {
		t.Errorf("sim backend rejected sim flags: %v", err)
	}
}

// TestParsedCommandLineFailsFast runs the same flag.Visit plumbing main
// uses over a parsed FlagSet, end to end.
func TestParsedCommandLineFailsFast(t *testing.T) {
	fs := flag.NewFlagSet("packbench", flag.ContinueOnError)
	fs.String("backend", "sim", "")
	fs.String("faults", "", "")
	fs.String("exp", "all", "")
	if err := fs.Parse([]string{"-backend", "real", "-faults", "42:drop=0.01"}); err != nil {
		t.Fatal(err)
	}
	backend, err := transport.ParseBackend(fs.Lookup("backend").Value.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBackendFlags(backend, setFlagNames(fs)); err == nil {
		t.Fatal("-backend real -faults did not fail fast")
	} else if !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("error does not name -faults: %v", err)
	}
}
