package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
)

// renderSuite renders every experiment of a suite to one string.
func renderSuite(s Suite) string {
	var sb strings.Builder
	RenderAll(&sb, s.All())
	return sb.String()
}

// TestParallelOutputByteIdentical is the determinism invariant of the
// sweep engine (DESIGN.md §7): the rendered tables of a parallel sweep
// must be byte-identical to the serial run's. Host parallelism may only
// change wall-clock time, never a virtual measurement.
func TestParallelOutputByteIdentical(t *testing.T) {
	serial := NewSuite(true, 1)
	serial.Workers = 1
	parallel := NewSuite(true, 1)
	parallel.Workers = 4

	want := renderSuite(serial)
	got := renderSuite(parallel)
	if got != want {
		t.Fatalf("parallel sweep output differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if parallel.PerfSnapshot().MachineRuns == 0 {
		t.Fatal("parallel suite recorded no machine runs")
	}
}

// TestParallelPrefetchWarmsCache verifies the collect/prefetch pass
// actually routes points through the worker pool: after one parallel
// experiment, the replay must have answered from the warm cache.
func TestParallelPrefetchWarmsCache(t *testing.T) {
	s := NewSuite(true, 1)
	s.Workers = 4
	s.Fig3()
	if s.PerfSnapshot().CacheHits == 0 {
		t.Fatal("parallel sweep replay produced no cache hits; the prefetch pass did not run")
	}
}

// TestFirstErrorFromAnyRank exercises the first-error capture of
// Run.Execute: an error raised on a non-zero rank must surface as that
// error, not as a recovered-panic diagnostic (before the fix only rank
// 0's error was reported cleanly).
func TestFirstErrorFromAnyRank(t *testing.T) {
	base := Run{
		Layout: dist.MustLayout(dist.Dim{N: 256, P: 4, W: 4}),
		Gen:    mask.NewRandom(0.5, 1, 256),
		Opt:    pack.Options{Scheme: pack.SchemeCSS},
		Mode:   ModePack,
	}

	boom := errors.New("boom on rank 2")
	r := base
	r.failRank = func(rank int) error {
		if rank == 2 {
			return boom
		}
		return nil
	}
	if _, err := r.Execute(); !errors.Is(err, boom) {
		t.Fatalf("rank-2 failure surfaced as %v, want %v", err, boom)
	}

	// All ranks failing concurrently must still yield exactly one of
	// the injected errors (the race the sync.Once arbitrates).
	r = base
	r.failRank = func(rank int) error { return fmt.Errorf("rank %d failed", rank) }
	_, err := r.Execute()
	if err == nil {
		t.Fatal("no error surfaced when every rank failed")
	}
	if !strings.HasPrefix(err.Error(), "rank ") || !strings.HasSuffix(err.Error(), " failed") {
		t.Fatalf("concurrent failures surfaced as %q, want one injected rank error", err)
	}
}

// BenchmarkQuickSweep measures the whole quick suite end-to-end, the
// number the -parallel flag is meant to move on multi-core hosts.
func BenchmarkQuickSweep(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewSuite(true, 1)
				s.Workers = workers
				s.All()
			}
		})
	}
}

// BenchmarkMeasurePoint measures one cached-suite experiment point,
// the unit of work the allocation rework targets.
func BenchmarkMeasurePoint(b *testing.B) {
	b.ReportAllocs()
	r := Run{
		Layout: dist.MustLayout(dist.Dim{N: 4096, P: 16, W: 16}),
		Gen:    mask.NewRandom(0.5, 1, 4096),
		Opt:    pack.Options{Scheme: pack.SchemeCMS},
		Mode:   ModePack,
	}
	for i := 0; i < b.N; i++ {
		if _, err := r.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPerExperimentPerfParallelInvariant: the report rows count the
// same rendered output and the same machine runs whatever the worker
// count. virtual_ms is not compared: it is a delta of one running float
// sum, and at Workers 4 the prefetch pool adds in completion order, so
// it can move by an ulp (DESIGN.md §10). The rows hold no host
// allocation figure any more, so none is compared either.
func TestPerExperimentPerfParallelInvariant(t *testing.T) {
	ids := []string{"fig3", "fig4", "prs"}
	collect := func(workers int) map[string]ExperimentPerf {
		s := NewSuite(true, 1)
		s.Workers = workers
		out := make(map[string]ExperimentPerf)
		for _, id := range ids {
			_, perf, err := s.RunInstrumented(id)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = perf
		}
		return out
	}
	serial, parallel := collect(1), collect(4)
	for _, id := range ids {
		sp, pp := serial[id], parallel[id]
		if sp.Rows != pp.Rows || sp.Tables != pp.Tables || sp.MachineRuns != pp.MachineRuns {
			t.Errorf("%s: serial %d/%d/%d, parallel %d/%d/%d tables/rows/machine_runs",
				id, sp.Tables, sp.Rows, sp.MachineRuns, pp.Tables, pp.Rows, pp.MachineRuns)
		}
	}
}
