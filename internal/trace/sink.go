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
//   - FlightRecorder (flight.go) keeps the last few events per rank in
//     rings, a bounded post-mortem window.
//
// Tee fans one stream out to several of them.
//
// Concurrency: Emit is called by the rank that owns the event. On the
// emulator calls are serialized; on the real backend ranks call
// concurrently. RetainSink and FlightRecorder exploit ownership
// (per-rank state, no locks on the hot path) and report their rank
// count through Procs (sim.SizedSink); JSONLSink serializes on a mutex
// because its output is one shared stream.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

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
