package trace

// This file holds the Sink implementations that consume a machine's
// structured event stream (sim.Config.Sink / RealConfig.Sink) as it is
// produced. The stream is the machine's only event output; every view
// in this package is derived from what one of these sinks kept:
//
//   - RetainSink keeps everything, per rank — the only retained
//     capture. NewCapture reads it and derives the span timelines, so
//     the Chrome export, the matrices and the critical path all start
//     from it. Memory is O(total events).
//   - JSONLSink streams events to an io.Writer as JSON lines; the
//     memory cost is one buffered writer, and ReadJSONL round-trips
//     the stream back into events for offline analysis.
//   - AggSink folds events into per-phase, per-rank rollups online —
//     communication matrix cells, busy/comm/wait accumulators,
//     message-size histograms (internal/metrics) — and retains no
//     events at all. Memory is O(active (rank, phase, destination)
//     triples + P), independent of run length.
//   - FlightRecorder (flight.go) keeps the last few events per rank in
//     rings, a bounded post-mortem window.
//
// Tee fans one stream out to several of them.
//
// Concurrency: Emit is called by the rank that owns the event. On the
// emulator calls are serialized; on the real backend ranks call
// concurrently. RetainSink, AggSink and FlightRecorder exploit
// ownership (per-rank state, no locks on the hot path; AggSink's
// shared per-phase histograms are created once under its lock and
// observed atomically) and report their rank count through Procs
// (sim.SizedSink); JSONLSink serializes on a mutex because its output
// is one shared stream.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"packunpack/internal/metrics"
	"packunpack/internal/sim"
)

// Sink is a destination for streamed trace events. It extends
// sim.EventSink with Flush, which forces out any buffered state (and
// reports deferred I/O errors) once the run is over.
type Sink interface {
	sim.EventSink
	Flush() error
}

// --- full retention ---

// RetainSink keeps every event in per-rank buffers: the retained
// capture NewCapture reads.
type RetainSink struct {
	rows [][]sim.Event
}

// NewRetainSink builds a retaining sink for procs ranks.
func NewRetainSink(procs int) *RetainSink {
	return &RetainSink{rows: make([][]sim.Event, procs)}
}

// Emit appends the event to its rank's buffer. Only the owning rank
// appends to a given row, so concurrent ranks never contend.
func (s *RetainSink) Emit(ev sim.Event) {
	if ev.Rank < 0 || ev.Rank >= len(s.rows) {
		return
	}
	s.rows[ev.Rank] = append(s.rows[ev.Rank], ev)
}

// Flush is a no-op; retention has nothing buffered elsewhere.
func (s *RetainSink) Flush() error { return nil }

// Procs returns the rank count the sink was built for.
func (s *RetainSink) Procs() int { return len(s.rows) }

// Events returns the retained per-rank streams. The rows are copies;
// call after the run has finished.
func (s *RetainSink) Events() [][]sim.Event {
	out := make([][]sim.Event, len(s.rows))
	for i, row := range s.rows {
		out[i] = append([]sim.Event(nil), row...)
	}
	return out
}

// --- JSONL streaming ---

// jsonlEvent is the wire form of one event. Field order is fixed and
// all fields are always present, so the output is byte-deterministic
// for a deterministic event stream and round-trips exactly (Go's
// float64 marshalling is shortest-round-trip).
type jsonlEvent struct {
	Kind  string  `json:"kind"`
	Seq   uint64  `json:"seq"`
	Rank  int     `json:"rank"`
	Peer  int     `json:"peer"`
	Tag   int     `json:"tag"`
	Words int     `json:"words"`
	Ops   int64   `json:"ops"`
	Time  float64 `json:"time"`
	Dur   float64 `json:"dur"`
	Phase string  `json:"phase"`
	MsgID uint64  `json:"msgid"`
}

// evKindByName inverts EventKind.String() over every kind; it drives
// ReadJSONL's decoding.
var evKindByName = func() map[string]sim.EventKind {
	m := make(map[string]sim.EventKind)
	for k := sim.EvSend; k <= sim.EvDedup; k++ {
		m[k.String()] = k
	}
	return m
}()

// JSONLSink streams every event as one JSON object per line. Ranks
// emit into one shared stream, so a mutex serializes writes; the
// buffered writer keeps the syscall rate sane. Write errors are held
// and reported by Flush (the emulator hot path has no error channel).
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewJSONLSink builds a streaming sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit writes one JSON line.
func (s *JSONLSink) Emit(ev sim.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	line, err := json.Marshal(jsonlEvent{
		Kind: ev.Kind.String(), Seq: ev.Seq, Rank: ev.Rank, Peer: ev.Peer,
		Tag: ev.Tag, Words: ev.Words, Ops: ev.Ops, Time: ev.Time, Dur: ev.Dur,
		Phase: ev.Phase, MsgID: ev.MsgID,
	})
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.bw.Write(line); err != nil {
		s.err = err
		return
	}
	s.err = s.bw.WriteByte('\n')
}

// Flush drains the buffer and reports the first deferred error.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// ReadJSONL parses a stream written by JSONLSink back into events, in
// stream order.
func ReadJSONL(r io.Reader) ([]sim.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []sim.Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		kind, ok := evKindByName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: jsonl line %d: unknown event kind %q", line, je.Kind)
		}
		out = append(out, sim.Event{
			Kind: kind, Seq: je.Seq, Rank: je.Rank, Peer: je.Peer, Tag: je.Tag,
			Words: je.Words, Ops: je.Ops, Time: je.Time, Dur: je.Dur,
			Phase: je.Phase, MsgID: je.MsgID,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: jsonl read: %w", err)
	}
	return out, nil
}

// EventsByRank regroups a flat event stream (e.g. from ReadJSONL) into
// the per-rank rows a Capture carries, dropping events whose rank is
// outside [0, procs).
func EventsByRank(events []sim.Event, procs int) [][]sim.Event {
	rows := make([][]sim.Event, procs)
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= procs {
			continue
		}
		rows[e.Rank] = append(rows[e.Rank], e)
	}
	return rows
}

// --- online aggregation ---

// RankRollup is one rank's accumulated activity: how much virtual (or
// wall) time it spent computing (charge batches), occupying the wire
// (send costs), and waiting in receives, plus its traffic totals. Idle
// time relative to the makespan is Makespan - Busy - Comm - Wait for
// sim captures (the emulator's clock only advances through those
// three).
type RankRollup struct {
	Rank   int
	Events int64 // events folded for this rank
	Msgs   int64 // charged sends
	Words  int64
	Busy   float64 // charge-batch time, µs
	Comm   float64 // send occupancy, µs
	Wait   float64 // receive waiting, µs
}

// aggCell is one (src rank, phase, dst rank) traffic counter.
type aggCell struct {
	msgs, words int64
}

// aggRank is one rank's private accumulator. Only the owning rank
// touches it during a run.
type aggRank struct {
	roll  RankRollup
	total map[int]*aggCell              // dst -> counts, all phases
	byPh  map[string]map[int]*aggCell   // phase -> dst -> counts
	sizes map[string]*metrics.Histogram // this rank's handles into AggSink.sizes
}

// AggSink folds the event stream into per-phase rollups online: a
// sparse communication matrix (per-rank destination maps, so memory
// tracks active src->dst pairs rather than P^2), per-rank
// busy/comm/wait accumulators, and per-phase message-size histograms
// shared by every rank. No event is retained; the sink's memory is
// O(active cells + P) regardless of how many events pass through — the
// property that makes tracing affordable at P >= 1024 (pinned by
// TestScaleAggregatedObservability).
type AggSink struct {
	procs int
	ranks []*aggRank

	mu    sync.Mutex                    // guards sizes; taken once per (rank, phase)
	sizes map[string]*metrics.Histogram // phase -> message sizes, machine words
}

// NewAggSink builds an aggregating sink for procs ranks.
func NewAggSink(procs int) *AggSink {
	s := &AggSink{procs: procs, ranks: make([]*aggRank, procs), sizes: map[string]*metrics.Histogram{}}
	for i := range s.ranks {
		s.ranks[i] = &aggRank{
			roll:  RankRollup{Rank: i},
			total: map[int]*aggCell{},
			byPh:  map[string]map[int]*aggCell{},
			sizes: map[string]*metrics.Histogram{},
		}
	}
	return s
}

// Emit folds one event. Hot path: one switch, map lookups only on
// sends (the others touch fixed per-rank fields).
func (s *AggSink) Emit(ev sim.Event) {
	if ev.Rank < 0 || ev.Rank >= s.procs {
		return
	}
	r := s.ranks[ev.Rank]
	r.roll.Events++
	switch ev.Kind {
	case sim.EvCharge:
		r.roll.Busy += ev.Dur
	case sim.EvSend:
		r.roll.Msgs++
		r.roll.Words += int64(ev.Words)
		r.roll.Comm += ev.Dur
		if ev.Peer >= 0 && ev.Peer < s.procs {
			cell := r.total[ev.Peer]
			if cell == nil {
				cell = &aggCell{}
				r.total[ev.Peer] = cell
			}
			cell.msgs++
			cell.words += int64(ev.Words)
			ph := r.byPh[ev.Phase]
			if ph == nil {
				ph = map[int]*aggCell{}
				r.byPh[ev.Phase] = ph
			}
			pcell := ph[ev.Peer]
			if pcell == nil {
				pcell = &aggCell{}
				ph[ev.Peer] = pcell
			}
			pcell.msgs++
			pcell.words += int64(ev.Words)
		}
		h := r.sizes[ev.Phase]
		if h == nil {
			h = s.sizeHist(ev.Phase)
			r.sizes[ev.Phase] = h
		}
		h.Observe(int64(ev.Words))
	case sim.EvRecvWake:
		r.roll.Wait += ev.Dur
	}
}

// sizeHist returns the phase's shared size histogram, creating it on
// first use. Real-backend ranks call it concurrently.
func (s *AggSink) sizeHist(phase string) *metrics.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sizes[phase]
	if h == nil {
		h = metrics.NewHistogram()
		s.sizes[phase] = h
	}
	return h
}

// Flush is a no-op; aggregation holds no deferred I/O.
func (s *AggSink) Flush() error { return nil }

// Procs returns the rank count the sink was built for.
func (s *AggSink) Procs() int { return s.procs }

// Rollups returns the per-rank accumulators, ordered by rank. Call
// after the run has finished.
func (s *AggSink) Rollups() []RankRollup {
	out := make([]RankRollup, s.procs)
	for i, r := range s.ranks {
		out[i] = r.roll
	}
	return out
}

// Matrix materializes the dense P×P communication matrix from the
// sparse cells, in the same shape BuildMatrix produces from a retained
// capture (total plus per-phase sections). Dense cost is O(P^2) per
// section — fine for rendering small machines; at large P prefer the
// sparse accessors (Rollups, Totals, CheckStats).
func (s *AggSink) Matrix() *CommMatrix {
	m := &CommMatrix{P: s.procs, Total: newCells(s.procs), ByPhase: map[string]*MatrixCells{}}
	for src, r := range s.ranks {
		for dst, cell := range r.total {
			i := src*s.procs + dst
			m.Total.Msgs[i] += cell.msgs
			m.Total.Words[i] += cell.words
		}
		for phase, cells := range r.byPh {
			ph := m.ByPhase[phase]
			if ph == nil {
				ph = newCells(s.procs)
				m.ByPhase[phase] = ph
			}
			for dst, cell := range cells {
				i := src*s.procs + dst
				ph.Msgs[i] += cell.msgs
				ph.Words[i] += cell.words
			}
		}
	}
	return m
}

// Totals sums traffic over all ranks.
func (s *AggSink) Totals() (msgs, words int64) {
	for _, r := range s.ranks {
		msgs += r.roll.Msgs
		words += r.roll.Words
	}
	return msgs, words
}

// Cells counts the allocated sparse matrix cells (total and per-phase)
// — the sink's variable-size memory. The fixed remainder is O(P).
// Exposed so scale tests can assert the memory bound structurally.
func (s *AggSink) Cells() int {
	n := 0
	for _, r := range s.ranks {
		n += len(r.total)
		for _, ph := range r.byPh {
			n += len(ph)
		}
	}
	return n
}

// EventsSeen sums the events folded across all ranks.
func (s *AggSink) EventsSeen() int64 {
	var n int64
	for _, r := range s.ranks {
		n += r.roll.Events
	}
	return n
}

// SizeQuantile extracts quantile q of the message-size distribution of
// one phase, in machine words (0 when the phase saw no sends).
func (s *AggSink) SizeQuantile(phase string, q float64) int64 {
	return s.sizeHist(phase).Quantile(q)
}

// SizeCount returns how many sends the named phase's size histogram
// observed.
func (s *AggSink) SizeCount(phase string) int64 {
	return s.sizeHist(phase).Count()
}

// CheckStats verifies the rollups reconcile exactly with the
// machine-level accounting: per rank, folded sends and words must
// equal Stats.MsgsSent/WordsSent. A mismatch means events were lost
// (or double-counted) between the emit path and the sink — the
// invariant that makes aggregated traces trustworthy summaries.
func (s *AggSink) CheckStats(stats []sim.Stats) error {
	if len(stats) != s.procs {
		return fmt.Errorf("trace: aggregator built for %d ranks, stats have %d", s.procs, len(stats))
	}
	for i, st := range stats {
		r := s.ranks[i].roll
		if r.Msgs != st.MsgsSent || r.Words != st.WordsSent {
			return fmt.Errorf("trace: rank %d rollup (%d msgs, %d words) does not reconcile with stats (%d msgs, %d words)",
				i, r.Msgs, r.Words, st.MsgsSent, st.WordsSent)
		}
	}
	return nil
}

// --- fan-out ---

// Tee fans one event stream out to several sinks, in order: a machine
// has a single Sink, and a Tee is how one run feeds a retained capture,
// a JSONL stream and a flight recorder at once. It adds no state, so
// it is safe under concurrent ranks whenever every member is.
type Tee []sim.EventSink

// NewTee builds the fan-out over the non-nil sinks. It returns nil when
// there are none, so an all-off configuration keeps the machine's
// one-nil-check emit gate closed, and the sink itself when there is
// one.
func NewTee(sinks ...sim.EventSink) sim.EventSink {
	var t Tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

// Emit hands the event to every member.
func (t Tee) Emit(ev sim.Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// Procs returns the rank count the smallest sized member covers, so a
// machine rejects a Tee holding any sink too small for it.
func (t Tee) Procs() int {
	n := math.MaxInt
	for _, s := range t {
		n = min(n, sinkProcs(s))
	}
	return n
}

// sinkProcs is the rank count s covers: its Procs when it is sized,
// unbounded otherwise.
func sinkProcs(s sim.EventSink) int {
	if sz, ok := s.(sim.SizedSink); ok {
		return sz.Procs()
	}
	return math.MaxInt
}
