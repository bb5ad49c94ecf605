package bench

import (
	"errors"
	"fmt"
	"reflect"
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
	if parallel.cache.len() == 0 {
		t.Fatal("parallel suite measured no points")
	}
}

// TestParallelPrefetchWarmsCache verifies the collect/prefetch pass
// actually routes points through the worker pool: when a parallel
// experiment's replay starts, every point it reads is already cached.
func TestParallelPrefetchWarmsCache(t *testing.T) {
	s := NewSuite(true, 1)
	s.Workers = 4
	var atReplay, afterReplay int
	s.parallelize(func(s Suite) []*Table {
		if s.collect != nil {
			return s.fig3()
		}
		atReplay = s.cache.len()
		tables := s.fig3()
		afterReplay = s.cache.len()
		return tables
	})
	if atReplay == 0 || afterReplay != atReplay {
		t.Fatalf("replay started with %d cached points and ended with %d; the prefetch pass did not run", atReplay, afterReplay)
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

// instrumentAll runs every canonical experiment through
// RunInstrumented, as packbench -exp all does, and returns the tables
// of each and its report row.
func instrumentAll(t *testing.T, s Suite) (map[string][]*Table, map[string]ExperimentPerf) {
	t.Helper()
	tables := make(map[string][]*Table)
	rows := make(map[string]ExperimentPerf)
	for _, id := range s.ExperimentIDs() {
		tb, perf, err := s.RunInstrumented(id)
		if err != nil {
			t.Fatal(err)
		}
		tables[id], rows[id] = tb, perf
	}
	return tables, rows
}

// TestPerExperimentPerfParallelInvariant: every report row — tables,
// rows, machine runs, virtual_ms and each derived mean — is the same
// whatever the worker count. Points are booked in replay order, so the
// prefetch pool's completion order and the points it over-collects on
// the data-dependent table1 and model grids move nothing.
func TestPerExperimentPerfParallelInvariant(t *testing.T) {
	serial := NewSuite(true, 1)
	serial.Workers = 1
	parallel := NewSuite(true, 1)
	parallel.Workers = 4
	_, want := instrumentAll(t, serial)
	_, got := instrumentAll(t, parallel)
	for _, id := range serial.ExperimentIDs() {
		if !reflect.DeepEqual(got[id], want[id]) {
			t.Errorf("%s: Workers 4 row %+v, Workers 1 row %+v", id, got[id], want[id])
		}
	}
}

// TestExperimentAloneMatchesSequence: each canonical experiment renders
// the same tables on a fresh suite as inside the ExperimentIDs()
// sequence, where earlier experiments have filled the shared cache. A
// run key that named two different masks alike answered one
// experiment's lookups with another's runs.
func TestExperimentAloneMatchesSequence(t *testing.T) {
	seq := NewSuite(true, 1)
	seq.Workers = 1
	inSeq, _ := instrumentAll(t, seq)
	for _, id := range seq.ExperimentIDs() {
		alone := NewSuite(true, 1)
		alone.Workers = 1
		var got, want strings.Builder
		RenderAll(&got, alone.Registry()[id]())
		RenderAll(&want, inSeq[id])
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("%s line %d: alone %q, inside the sequence %q", id, i+1, gl[i], wl[i])
				break
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%s: %d lines alone, %d inside the sequence", id, len(gl), len(wl))
		}
	}
}
