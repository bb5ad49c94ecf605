package main

// The reproduce probe: one round of the paper's quick-size experiments
// (fig3–fig5, table1, table2, prs) through internal/bench's registry, on
// a fresh suite so no memoised point is reused, with reproduceWorkers
// host workers. Every machine in it is the emulator; the real transport
// is not touched. A traced run of every workload times one round per
// experiment for the sim.exp_ms.* figures.

import (
	"bytes"
	"fmt"
	"time"

	"packunpack/internal/bench"
)

var reproduceIDs = []string{"fig3", "fig4", "fig5", "table1", "table2", "prs"}

const reproduceWorkers = 1

// expSpan is one experiment of a round, as offsets from the round's start.
type expSpan struct{ start, end time.Duration }

func (e expSpan) ms() float64 { return ms(e.end - e.start) }

// reproduceRound runs every experiment once and returns the rendered
// tables and each experiment's span.
func reproduceRound(seed uint64) (out []byte, took []expSpan, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment panicked: %v", r)
		}
	}()
	s := bench.NewSuite(true, seed)
	s.Workers = reproduceWorkers
	reg := s.Registry()
	var buf bytes.Buffer
	took = make([]expSpan, len(reproduceIDs))
	start := time.Now()
	for i, id := range reproduceIDs {
		took[i].start = time.Since(start)
		tables := reg[id]()
		took[i].end = time.Since(start)
		bench.RenderAll(&buf, tables)
	}
	return buf.Bytes(), took, nil
}

// probeReproduce runs two rounds of the experiments, which must render
// the same tables, and reports the first round's sim.exp_ms.* figures.
func (r *report) probeReproduce(seed uint64) error {
	r.source = "probe: reproduce round"
	out, took, err := reproduceRound(seed)
	if err == nil {
		var again []byte
		again, _, err = reproduceRound(seed)
		if err == nil && !bytes.Equal(out, again) {
			err = fmt.Errorf("two rounds rendered different tables")
		}
	}
	if !r.record(err) {
		return fmt.Errorf("reproduce probe: %w", err)
	}
	for i, id := range reproduceIDs {
		r.put("sim.exp_ms."+id, metric{took[i].ms(), "ms"})
	}
	return nil
}
