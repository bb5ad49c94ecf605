package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
)

// render renders tables to one string.
func render(tables []*Table) string {
	var sb strings.Builder
	RenderAll(&sb, tables)
	return sb.String()
}

// serialSweep is the quick sweep that the package's tests compare
// other runs against: every canonical experiment through
// RunInstrumented on one fresh Workers 1 suite, in ExperimentIDs
// order, as packbench -exp all runs them. It is computed once per test
// binary and read only.
type serialSweep struct {
	ids    []string
	tables map[string][]*Table
	rows   map[string]ExperimentPerf
}

// all returns the sweep's tables in ExperimentIDs order, as Suite.All
// returns them.
func (sw *serialSweep) all() []*Table {
	var out []*Table
	for _, id := range sw.ids {
		out = append(out, sw.tables[id]...)
	}
	return out
}

var serialSweepOnce = sync.OnceValues(func() (*serialSweep, error) {
	s := NewSuite(true, 1)
	s.Workers = 1
	sw := &serialSweep{ids: s.ExperimentIDs(), tables: make(map[string][]*Table), rows: make(map[string]ExperimentPerf)}
	for _, id := range sw.ids {
		tb, perf, err := s.RunInstrumented(id)
		if err != nil {
			return nil, err
		}
		sw.tables[id], sw.rows[id] = tb, perf
	}
	return sw, nil
})

// sharedSerialSweep returns the package's one serial quick sweep.
func sharedSerialSweep(t *testing.T) *serialSweep {
	t.Helper()
	sw, err := serialSweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// aloneRun is one registered experiment run alone: its tables and the
// fresh Workers 1 suite that generated them, whose cache holds exactly
// the points its replay read.
type aloneRun struct {
	suite  Suite
	tables []*Table
}

// aloneRuns runs every registered experiment, hidden ones included,
// alone, once per test binary; the runs are read only.
var aloneRuns = sync.OnceValue(func() map[string]aloneRun {
	out := make(map[string]aloneRun)
	for id := range NewSuite(true, 1).Registry() {
		s := NewSuite(true, 1)
		s.Workers = 1
		out[id] = aloneRun{suite: s, tables: s.Registry()[id]()}
	}
	return out
})

// TestParallelOutputByteIdentical is the determinism invariant of the
// sweep engine (DESIGN.md §7): the rendered tables of a parallel sweep
// must be byte-identical to the serial run's. Host parallelism may only
// change wall-clock time, never a virtual measurement. The parallel
// side also carries the flight recorder on every PACK/UNPACK machine,
// so the same comparison pins that an attached event sink changes no
// virtual time anywhere in the sweep.
func TestParallelOutputByteIdentical(t *testing.T) {
	parallel := NewSuite(true, 1)
	parallel.Workers = 4
	parallel.FlightDir = t.TempDir()

	want := render(sharedSerialSweep(t).all())
	got := render(parallel.All())
	if got != want {
		t.Fatalf("parallel sweep output differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if parallel.cache.len() == 0 {
		t.Fatal("parallel suite measured no points")
	}
}

// TestCollectReadsWhatReplayReads: for every registered experiment,
// the points a fresh suite's collect pass records are, as a set, the
// points a serial replay reads into its cache (the experiment's alone
// run). The prefetch therefore executes nothing the replay discards,
// and a -trace-dir holds one file per booked run at any worker count.
func TestCollectReadsWhatReplayReads(t *testing.T) {
	for id, alone := range aloneRuns() {
		dry := NewSuite(true, 1)
		dry.collect = &runCollector{seen: make(map[string]bool)}
		dry.Registry()[id]()
		serial := alone.suite
		both := 0
		for _, key := range dry.collect.keys {
			if _, ok := serial.cache.get(key); ok {
				both++
			}
		}
		if collected, read := len(dry.collect.keys), serial.cache.len(); collected == 0 || both != collected || both != read {
			t.Errorf("%s: the collect pass records %d points and the replay reads %d, %d of them in both", id, collected, read, both)
		}
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
// prefetch pool's completion order moves nothing.
func TestPerExperimentPerfParallelInvariant(t *testing.T) {
	serial := sharedSerialSweep(t)
	parallel := NewSuite(true, 1)
	parallel.Workers = 4
	_, got := instrumentAll(t, parallel)
	for _, id := range serial.ids {
		if want := serial.rows[id]; !reflect.DeepEqual(got[id], want) {
			t.Errorf("%s: Workers 4 row %+v, Workers 1 row %+v", id, got[id], want)
		}
	}
}

// TestExperimentAloneMatchesSequence: each canonical experiment renders
// the same tables on a fresh suite as inside the ExperimentIDs()
// sequence, where earlier experiments have filled the shared cache. A
// run key that named two different masks alike answered one
// experiment's lookups with another's runs.
func TestExperimentAloneMatchesSequence(t *testing.T) {
	seq := sharedSerialSweep(t)
	alone := aloneRuns()
	for _, id := range seq.ids {
		gl, wl := strings.Split(render(alone[id].tables), "\n"), strings.Split(render(seq.tables[id]), "\n")
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
