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

// TestSimOnlyFlagsAllowedOnSimBackend: the same flags are fine on the
// emulator, and unrelated flags are fine on the real backend.
func TestSimOnlyFlagsAllowedOnSimBackend(t *testing.T) {
	if err := checkBackendFlags(transport.BackendSim, []string{"critpath", "matrix"}); err != nil {
		t.Errorf("sim backend rejected sim flags: %v", err)
	}
	if err := checkBackendFlags(transport.BackendReal, []string{"matrix", "format", "o", "jsonl", "flight-dir"}); err != nil {
		t.Errorf("real backend rejected backend-neutral flags: %v", err)
	}
}

// TestSetFlagNames exercises the flag.Visit plumbing the hygiene check
// runs on: only explicitly set flags are reported.
func TestSetFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("packtrace", flag.ContinueOnError)
	fs.Bool("critpath", false, "")
	fs.String("backend", "sim", "")
	fs.String("shape", "16384", "")
	if err := fs.Parse([]string{"-critpath", "-backend", "real"}); err != nil {
		t.Fatal(err)
	}
	got := setFlagNames(fs)
	want := map[string]bool{"critpath": true, "backend": true}
	if len(got) != len(want) {
		t.Fatalf("setFlagNames = %v, want exactly %v", got, want)
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("setFlagNames reported %q, which was not set", name)
		}
	}
	backend, err := transport.ParseBackend("real")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBackendFlags(backend, got); err == nil {
		t.Fatal("parsed -critpath -backend real did not fail fast")
	}
}

func TestParseShape(t *testing.T) {
	shape, err := parseShape("64x32")
	if err != nil || len(shape) != 2 || shape[0] != 64 || shape[1] != 32 {
		t.Fatalf("parseShape(64x32) = %v, %v", shape, err)
	}
	if _, err := parseShape("64x"); err == nil {
		t.Fatal("parseShape(64x) did not error")
	}
	if _, err := parseShape("0"); err == nil {
		t.Fatal("parseShape(0) did not error")
	}
}
