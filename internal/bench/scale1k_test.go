package bench

import (
	"strings"
	"testing"

	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// scaleAggRun executes a P=1024 cooperative CMS PACK with an
// aggregating sink attached, repeating the operation reps times inside
// the one machine, and returns the sink and the machine's stats.
func scaleAggRun(t *testing.T, procs, n, reps int) (*trace.AggSink, []sim.Stats) {
	t.Helper()
	agg := trace.NewAggSink(procs)
	layout := oneD(n, procs, 64)
	gen := mask.NewRandom(0.5, 1, n)
	machine := sim.MustNew(sim.Config{
		Procs: procs, Params: sim.CM5Params(), Sink: agg,
	})
	if err := machine.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(layout, p.Rank(), gen)
		a := fillLocalData(nil, p.Rank(), layout.LocalSize())
		for i := 0; i < reps; i++ {
			if _, err := pack.Pack(p, layout, a, lm, pack.Options{Scheme: pack.SchemeCMS}); err != nil {
				panic(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return agg, machine.Stats()
}

// TestScaleAggregatedObservability is the ISSUE-9 acceptance test: a
// P=1024 cooperative-scheduler PACK run with the aggregating sink
// attached completes with event-storage memory O(P) — zero events are
// retained anywhere and the per-rank rollup state is exactly P entries
// — and the rollups reconcile exactly, per rank, with the machine's
// Stats counters. The sink's only variable-size state is its sparse
// cell set, which is bounded by the active traffic pattern (the
// many-to-many exchange is protocol-level all-to-all, so ~2·P² cells
// plus the PRS pairs) and — the part that makes tracing at scale
// affordable — independent of how many events stream through: doubling
// the event volume must not grow it by a single cell.
func TestScaleAggregatedObservability(t *testing.T) {
	const procs = 1024
	const n = 1 << 18 // 256 local elements per rank
	agg, stats := scaleAggRun(t, procs, n, 1)

	// Exact per-rank reconciliation of the rollups with Stats.
	if err := agg.CheckStats(stats); err != nil {
		t.Fatalf("rollups do not reconcile with Stats: %v", err)
	}
	if got := len(agg.Rollups()); got != procs {
		t.Fatalf("rollup state has %d per-rank entries, want exactly P=%d", got, procs)
	}

	folded := agg.EventsSeen()
	cells := agg.Cells()
	if folded < int64(procs) {
		t.Fatalf("sink folded only %d events for a P=%d run", folded, procs)
	}
	// Pattern bound: total cells + per-phase cells can cover at most
	// every (src, dst) pair twice, plus slack for the low-degree PRS
	// phase pairs.
	if limit := 2*procs*procs + 64*procs; cells > limit {
		t.Fatalf("agg state = %d cells > pattern bound %d", cells, limit)
	}

	// Event-volume independence: twice the events, identical cell state.
	agg2, _ := scaleAggRun(t, procs, n, 2)
	if agg2.Cells() != cells {
		t.Fatalf("doubling event volume changed agg state: %d -> %d cells", cells, agg2.Cells())
	}
	if f2 := agg2.EventsSeen(); f2 < 2*folded*9/10 {
		t.Fatalf("repeat run folded %d events, want ~2x %d", f2, folded)
	}

	// The per-phase size histograms cover the exchange traffic.
	if c := agg.SizeCount(pack.PhaseM2M); c == 0 {
		t.Fatalf("no message sizes observed in phase %q", pack.PhaseM2M)
	}
}

// TestScale1KExperimentRendersAndReconciles runs the hidden scale1k
// sweep in quick mode end to end: it must render one table with both
// compact schemes (the experiment self-checks rollup reconciliation and
// panics on mismatch).
func TestScale1KExperimentRendersAndReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("P=1024 sweep in -short mode")
	}
	s := NewSuite(true, 1)
	s.Workers = 1
	tables := s.Scale1K()
	if len(tables) != 1 {
		t.Fatalf("scale1k rendered %d tables, want 1", len(tables))
	}
	var sb strings.Builder
	RenderAll(&sb, tables)
	out := sb.String()
	for _, want := range []string{"P=1024", "CSS", "CMS", "aggregating sink"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scale1k table missing %q:\n%s", want, out)
		}
	}
}
