package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"packunpack/internal/sim"
)

// This file implements the critical-path analyzer: starting from the
// processor whose final clock is the makespan, it walks the blocking
// chain backwards — through every receive that actually waited, to the
// send that released it, to that sender's own last blocking wait, and
// so on back to virtual time zero. The result partitions the makespan
// into processor segments joined by messages, so the question "which
// spans and which messages determine the end-to-end time" has an exact
// answer, attributed per phase. This is the per-run analogue of the
// paper's Section 7 argument: it tells you whether a configuration is
// bounded by ranking computation, by the prefix-reduction-sum, or by
// the many-to-many exchange — and which processor pair carries it.
//
// Correctness rests on two emulator invariants. A processor's clock
// advances only through events (charges, sends, receive waits, fault
// stalls and retry waits), so the derived span timelines have no
// hidden gaps. And a receive that waited resumes exactly at the
// message's arrival time. Without a delay fault the arrival is the
// sender's clock at send completion (up to float rounding), so the
// wake time is the jump target on the sender's timeline. A delay
// fault (EvFaultDelay) makes the arrival later than the send
// completion; for such a message the receiver's segment starts, and
// the walk continues on the sender, at the message's EvSend time.
// Jumping at the wake time instead would let the walk land on the
// same wake forever when the delayed message is a self-message.

// Segment is one processor's stretch of the critical path: the
// processor ran (computed, sent) from Start to End without any
// blocking wait. Except for the first, each segment begins at the
// arrival of the message that released it — or, for a message a delay
// fault held back, at its send completion, so the segment also covers
// the receiver's wait for the delay.
type Segment struct {
	Rank       int
	Start, End float64
	// MsgFrom/MsgTag/MsgWords/MsgID describe the releasing message;
	// MsgFrom is -1 for the initial segment (path start at time zero).
	MsgFrom  int
	MsgTag   int
	MsgWords int
	MsgID    uint64
	// Comp and Comm attribute the segment's virtual time to phases,
	// from the derived span timeline.
	Comp map[string]float64
	Comm map[string]float64
}

// Dur returns the segment length in µs.
func (s Segment) Dur() float64 { return s.End - s.Start }

// CritReport is the analyzed critical path of one capture.
type CritReport struct {
	// Makespan is the maximum final clock, µs; EndRank the processor
	// that reaches it.
	Makespan float64
	EndRank  int
	// Segments in time order from virtual time zero to the makespan;
	// adjacent segments join at a message arrival.
	Segments []Segment
	// Msgs and Words count the messages riding the critical path.
	Msgs  int
	Words int64
	// Comp and Comm are the per-phase totals over all segments; their
	// grand sum equals the makespan (the accounting identity the tests
	// assert).
	Comp map[string]float64
	Comm map[string]float64
}

// PhaseNames returns the phases appearing on the path, sorted.
func (r *CritReport) PhaseNames() []string {
	seen := map[string]bool{}
	for name := range r.Comp {
		seen[name] = true
	}
	for name := range r.Comm {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// attribute folds the span coverage of (start, end] on rank into the
// segment's per-phase maps.
func (c *Capture) attribute(seg *Segment) {
	if seg.Rank >= len(c.Spans) {
		return
	}
	for _, s := range c.Spans[seg.Rank] {
		lo, hi := s.Start, s.End
		if lo < seg.Start {
			lo = seg.Start
		}
		if hi > seg.End {
			hi = seg.End
		}
		if hi <= lo {
			continue
		}
		if s.Comm {
			seg.Comm[s.Phase] += hi - lo
		} else {
			seg.Comp[s.Phase] += hi - lo
		}
	}
}

// ErrNoEvents reports a capture without structured events; the matrix
// degrades to empty, but the critical path genuinely needs the chain.
var ErrNoEvents = errors.New("trace: no events in capture")

// ErrNoStats reports a capture without per-processor statistics.
var ErrNoStats = errors.New("trace: capture has no statistics")

// ErrMalformedCapture reports a capture whose events reference ranks
// outside [0, Procs) — truncated or mixed streams.
var ErrMalformedCapture = errors.New("trace: malformed capture")

// CriticalPath walks the blocking chain backwards from the max-clock
// processor. It needs a retained capture (NewCapture): events for the
// chain, and the spans derived from them for phase attribution.
// Degenerate captures return typed errors (ErrNoEvents, ErrNoStats,
// ErrMalformedCapture), never panic.
func CriticalPath(c *Capture) (*CritReport, error) {
	if c.Procs < 1 || !c.HasEvents() {
		return nil, fmt.Errorf("%w (was a RetainSink attached as the machine's Sink?)", ErrNoEvents)
	}
	if len(c.Stats) == 0 {
		return nil, ErrNoStats
	}

	// Per-rank blocking wakes, in time order (event rows already are),
	// plus the send completion of every message and which messages a
	// delay fault held back.
	wakes := make([][]sim.Event, c.Procs)
	sentAt := map[uint64]float64{}
	delayed := map[uint64]bool{}
	var totalEvents int
	for rank, row := range c.Events {
		if rank >= c.Procs {
			return nil, fmt.Errorf("%w: event row %d beyond P=%d", ErrMalformedCapture, rank, c.Procs)
		}
		totalEvents += len(row)
		for _, e := range row {
			switch e.Kind {
			case sim.EvRecvWake:
				if e.Dur > 0 {
					wakes[rank] = append(wakes[rank], e)
				}
			case sim.EvSend:
				sentAt[e.MsgID] = e.Time
			case sim.EvFaultDelay:
				delayed[e.MsgID] = true
			}
		}
	}

	r := &CritReport{EndRank: 0, Comp: map[string]float64{}, Comm: map[string]float64{}}
	for rank, s := range c.Stats {
		if s.Clock > r.Makespan {
			r.Makespan, r.EndRank = s.Clock, rank
		}
	}
	if r.EndRank >= c.Procs {
		return nil, fmt.Errorf("%w: stats row %d beyond P=%d", ErrMalformedCapture, r.EndRank, c.Procs)
	}

	cur, t := r.EndRank, r.Makespan
	// A path can have at most one hop per blocking wake; anything more
	// means a zero-cost message cycle (possible only with Tau=Mu=0),
	// which would loop forever.
	for hop := 0; ; hop++ {
		if hop > totalEvents+c.Procs {
			return nil, fmt.Errorf("trace: critical path does not terminate (zero-cost message cycle at t=%.3f, rank %d)", t, cur)
		}
		ws := wakes[cur]
		// Latest blocking wake at or before t.
		i := sort.Search(len(ws), func(i int) bool { return ws[i].Time > t }) - 1
		seg := Segment{Rank: cur, End: t, MsgFrom: -1, Comp: map[string]float64{}, Comm: map[string]float64{}}
		if i < 0 {
			seg.Start = 0
			r.Segments = append(r.Segments, seg)
			break
		}
		w := ws[i]
		if w.Peer < 0 || w.Peer >= c.Procs {
			return nil, fmt.Errorf("%w: wake on rank %d names peer %d outside P=%d", ErrMalformedCapture, cur, w.Peer, c.Procs)
		}
		// The jump target: the wake time, or the send completion of a
		// delayed message (see the invariants above).
		seg.Start = w.Time
		if sent, ok := sentAt[w.MsgID]; ok && delayed[w.MsgID] {
			seg.Start = sent
		}
		seg.MsgFrom, seg.MsgTag, seg.MsgWords, seg.MsgID = w.Peer, w.Tag, w.Words, w.MsgID
		r.Segments = append(r.Segments, seg)
		r.Msgs++
		r.Words += int64(w.Words)
		cur, t = w.Peer, seg.Start
	}

	// Built back-to-front; flip to time order and attribute phases.
	for i, j := 0, len(r.Segments)-1; i < j; i, j = i+1, j-1 {
		r.Segments[i], r.Segments[j] = r.Segments[j], r.Segments[i]
	}
	for i := range r.Segments {
		c.attribute(&r.Segments[i])
		for name, v := range r.Segments[i].Comp {
			r.Comp[name] += v
		}
		for name, v := range r.Segments[i].Comm {
			r.Comm[name] += v
		}
	}
	return r, nil
}

// WriteCritPath renders the report: the hop table, then the per-phase
// attribution with its share of the makespan.
func WriteCritPath(w io.Writer, r *CritReport) {
	fmt.Fprintf(w, "critical path: makespan %.3f ms ending on p%d — %d hops, %d messages (%d words) on the path\n",
		r.Makespan/1000, r.EndRank, len(r.Segments), r.Msgs, r.Words)
	fmt.Fprintf(w, "%4s %5s %14s %14s %10s %10s  %s\n", "#", "proc", "start ms", "end ms", "comp ms", "comm ms", "released by")
	for i, seg := range r.Segments {
		var comp, comm float64
		for _, v := range seg.Comp {
			comp += v
		}
		for _, v := range seg.Comm {
			comm += v
		}
		release := "(run start)"
		if seg.MsgFrom >= 0 {
			release = fmt.Sprintf("msg from p%d tag %d, %d words", seg.MsgFrom, seg.MsgTag, seg.MsgWords)
		}
		fmt.Fprintf(w, "%4d %5s %14.3f %14.3f %10.3f %10.3f  %s\n",
			i+1, fmt.Sprintf("p%d", seg.Rank), seg.Start/1000, seg.End/1000, comp/1000, comm/1000, release)
	}
	fmt.Fprintln(w, "\nper-phase attribution on the path:")
	fmt.Fprintf(w, "  %-10s %10s %10s %8s\n", "phase", "comp ms", "comm ms", "share")
	var accounted float64
	for _, name := range r.PhaseNames() {
		comp, comm := r.Comp[name], r.Comm[name]
		accounted += comp + comm
		share := 0.0
		if r.Makespan > 0 {
			share = (comp + comm) / r.Makespan
		}
		fmt.Fprintf(w, "  %-10s %10.3f %10.3f %7.1f%%\n", name, comp/1000, comm/1000, share*100)
	}
	share := 0.0
	if r.Makespan > 0 {
		share = accounted / r.Makespan
	}
	fmt.Fprintf(w, "  %-10s %21.3f %7.1f%% of makespan accounted\n", "total", accounted/1000, share*100)
}
