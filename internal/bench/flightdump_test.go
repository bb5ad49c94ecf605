package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
)

// TestFlightDumpOnFaultAbort drives a sweep point into fault-budget
// exhaustion (a drop-everything plan, so the reliable transport in
// internal/comm gives up) with a FlightDir configured, and checks the
// engine dumped the flight recorder's window — both files, named by the
// point's memo key — before the abort panic propagated.
func TestFlightDumpOnFaultAbort(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(true, 1)
	s.Workers = 1
	s.FlightDir = dir
	r := Run{
		Layout: dist.MustLayout(dist.Dim{N: 256, P: 4, W: 4}),
		Gen:    mask.NewRandom(0.5, 1, 256),
		Opt:    pack.Options{Scheme: pack.SchemeCMS},
		Mode:   ModePack,
		Faults: &sim.FaultConfig{Seed: 1, Drop: 1, MaxRetries: 3},
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected the aborted machine to panic the engine")
		}
		msg := fmt.Sprint(rec)
		if !strings.Contains(msg, "flight recorder dumped") {
			t.Fatalf("abort panic does not name the dump: %s", msg)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var traceFile, txtFile bool
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".flight.trace.json") {
				traceFile = true
			}
			if strings.HasSuffix(e.Name(), ".flight.txt") {
				txtFile = true
			}
		}
		if !traceFile || !txtFile {
			t.Fatalf("flight dump files missing in %s: %v", dir, entries)
		}
	}()
	s.executePoint(r)
}

// TestFlightDirCleanSweepWritesNothing: the recorder is attached but a
// healthy sweep leaves the directory empty — the dump path is an abort
// path, not a logging path.
func TestFlightDirCleanSweepWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(true, 1)
	s.Workers = 1
	s.FlightDir = dir
	r := Run{
		Layout: dist.MustLayout(dist.Dim{N: 256, P: 4, W: 4}),
		Gen:    mask.NewRandom(0.5, 1, 256),
		Opt:    pack.Options{Scheme: pack.SchemeCMS},
		Mode:   ModePack,
	}
	met := s.executePoint(r)
	if met.TotalMS <= 0 {
		t.Fatalf("healthy point did not measure: %+v", met)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("clean sweep wrote flight files: %v", entries)
	}
}
