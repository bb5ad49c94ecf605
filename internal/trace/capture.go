package trace

import (
	"packunpack/internal/sim"
)

// Span is one interval of a processor timeline: [Start, End) in
// microseconds (virtual on the emulator, wall-clock on the real
// backend), attributed to a phase, either computation or communication
// (sending, or waiting for a message).
type Span struct {
	Phase string
	Comm  bool
	Start float64
	End   float64
}

// Capture is one finished run's observability snapshot: the statistics,
// span timelines, and structured event streams the exporters in this
// package consume. All slices are owned by the capture, so a capture
// stays valid across later runs of the same machine.
//
// A capture's timestamps are either all virtual (emulator) or all
// wall-clock microseconds (real backend), never a mix (DESIGN.md §14).
type Capture struct {
	Procs  int
	Params sim.Params
	Stats  []sim.Stats
	Spans  [][]Span
	Events [][]sim.Event
}

// Machine is what a capture reads off a machine once its run is over.
// *sim.Machine and every transport.Machine satisfy it.
type Machine interface {
	Procs() int
	Params() sim.Params
	Stats() []sim.Stats
}

// NewCapture snapshots the most recent run of m together with the
// event streams retain kept; attach retain as the machine's Sink (or
// inside a Tee) before the run. The span timelines are derived from
// those events (SpansFromEvents) on both backends.
func NewCapture(m Machine, retain *RetainSink) *Capture {
	stats := m.Stats()
	clocks := make([]float64, len(stats))
	for i, s := range stats {
		clocks[i] = s.Clock
	}
	events := retain.Events()
	return &Capture{
		Procs:  m.Procs(),
		Params: m.Params(),
		Stats:  stats,
		Spans:  SpansFromEvents(events, clocks),
		Events: events,
	}
}

// SpansFromEvents derives the per-processor span timelines from the
// event streams of either backend. Each event that ends a stretch of
// processor time closes a span from the previous one: charge batches
// and fault stalls are computation, sends and retry waits that carry a
// duration are communication (the emulator's wire occupancy and
// retransmission timeout), and a receive wake closes the wait since
// the receive was posted (its EvRecvBlock, or Time-Dur in a stream
// without one). Time no event accounts for — the real backend's
// computation, which it does not charge — is computation of the
// current phase, up to each rank's final clock from finalClocks.
// Contiguous spans of one phase and kind merge.
//
// On the emulator every clock advance is exactly one of those events,
// so the derived timeline tiles [0, Stats.Clock] with the very
// endpoints the clock took. Ranks without events get nil rows.
func SpansFromEvents(events [][]sim.Event, finalClocks []float64) [][]Span {
	out := make([][]Span, len(events))
	for rank, row := range events {
		if len(row) == 0 {
			continue
		}
		var spans []Span
		t, phase, posted := 0.0, "default", false
		// advance closes [t, end) as a span of the current phase,
		// extending the previous span (which always ends at t) when it
		// is of the same phase and kind.
		advance := func(comm bool, end float64) {
			if end <= t {
				return
			}
			if n := len(spans); n > 0 && spans[n-1].Phase == phase && spans[n-1].Comm == comm {
				spans[n-1].End = end
			} else {
				spans = append(spans, Span{Phase: phase, Comm: comm, Start: t, End: end})
			}
			t = end
		}
		for _, ev := range row {
			switch ev.Kind {
			case sim.EvPhase:
				advance(false, ev.Time)
				phase = ev.Phase
			case sim.EvCharge, sim.EvFaultStall:
				advance(false, ev.Time)
			case sim.EvSend, sim.EvRetry:
				advance(ev.Dur > 0, ev.Time)
			case sim.EvRecvBlock:
				advance(false, ev.Time)
				posted = true
			case sim.EvRecvWake:
				if !posted {
					advance(false, ev.Time-ev.Dur)
				}
				posted = false
				advance(true, ev.Time)
			}
		}
		if rank < len(finalClocks) {
			advance(false, finalClocks[rank])
		}
		out[rank] = spans
	}
	return out
}

// Makespan returns the largest final clock in the capture, µs.
func (c *Capture) Makespan() float64 {
	var max float64
	for _, s := range c.Stats {
		if s.Clock > max {
			max = s.Clock
		}
	}
	return max
}

// HasEvents reports whether any rank recorded structured events.
func (c *Capture) HasEvents() bool {
	for _, row := range c.Events {
		if len(row) > 0 {
			return true
		}
	}
	return false
}
