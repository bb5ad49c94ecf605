package bench

import (
	"fmt"

	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/trace"
)

// Scale1K extends the scaling sweep past the paper's P=256 ceiling to
// P=1024 (hidden experiment "scale1k", the ROADMAP scale target) with
// the online aggregating sink attached in place of full event
// retention: the machine streams every trace event through
// trace.AggSink, which folds it into per-rank/per-phase rollups and
// retains nothing — event-storage memory stays proportional to the
// active traffic pattern, not the event count, which is what makes
// observability at this scale affordable at all. The experiment is
// self-checking: the rollup totals must reconcile exactly with the
// machine's Stats counters, or the engine panics.
//
// Hidden (run with `packbench -exp scale1k`) so the canonical BENCH
// reports and the packdiff baselines keep their exact shape.
func (s Suite) Scale1K() []*Table {
	const procs = 1024
	n := 1 << 20
	if s.Quick {
		n = 1 << 18
	}
	t := &Table{
		ID:      "scale1k",
		Title:   fmt.Sprintf("P=1024 observability scale: 1-D PACK breakdown (ms), N=%d, mask 50%%, aggregating sink", n),
		Columns: []string{"scheme", "total", "local", "prs", "m2m", "msgs", "words", "agg cells", "events folded"},
		Notes: []string{
			"the aggregating sink retains zero events: 'agg cells' is its whole variable-size state, 'events folded' what full retention would have stored",
			"rollup totals reconcile exactly with the machines' Stats counters (self-checked)",
		},
	}
	gen := mask.NewRandom(0.5, s.Seed+99, n)
	for _, scheme := range []pack.Scheme{pack.SchemeCSS, pack.SchemeCMS} {
		agg := trace.NewAggSink(procs)
		met, err := Run{
			Layout: oneD(n, procs, 64), Gen: gen,
			Opt: pack.Options{Scheme: scheme}, Mode: ModePack,
			Sink: agg,
		}.Execute()
		if err != nil {
			panic(fmt.Sprintf("bench: scale1k: %v", err))
		}
		aggMsgs, aggWords := agg.Totals()
		if aggMsgs != met.Msgs || aggWords != met.Words {
			panic(fmt.Sprintf("bench: scale1k %s: rollup totals (%d msgs, %d words) do not reconcile with stats (%d msgs, %d words)",
				scheme, aggMsgs, aggWords, met.Msgs, met.Words))
		}
		t.AddRow(scheme.String(), ms(met.TotalMS), ms(met.LocalMS), ms(met.PRSMS), ms(met.M2MMS),
			fmt.Sprint(met.Msgs), fmt.Sprint(met.Words), fmt.Sprint(agg.Cells()), fmt.Sprint(agg.EventsSeen()))
	}
	return []*Table{t}
}
