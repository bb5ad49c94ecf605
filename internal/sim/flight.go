package sim

// This file is the flight recorder: a fixed-size per-rank ring buffer
// of the most recent trace events, designed to be left on during long
// runs at one-branch cost on the hot path. Where Config.Trace retains
// every event (O(total events) memory) and Config.Sink streams them
// out, the flight recorder keeps only the last Capacity events per
// rank — a bounded post-mortem window. When a run dies (structural
// deadlock, exhausted fault budget, real-backend watchdog abort), the
// caller snapshots the rings and hands them to internal/trace's
// DumpFlight, which writes a Chrome-loadable trace plus a text summary
// of the machine's final moments.
//
// Concurrency contract: like every other piece of tracing state, each
// ring is owned by its rank — only the processor whose events they are
// writes into ring r. On the emulator all writes are serialized
// anyway; on the real backend ranks write concurrently to disjoint
// rings, which is race-free without locks. Snapshot must only be called once the run
// has finished (Machine.Run returned), the same rule the Stats/Events
// accessors follow.

import "fmt"

// FlightRecorder holds one fixed-capacity event ring per rank. Build
// one with NewFlightRecorder, attach it via Config.Flight (sim) or
// RealConfig.Flight (real backend), and read it with Snapshot after
// the run returned an error.
type FlightRecorder struct {
	procs int
	cap   int
	rings [][]Event // rings[r] has capacity cap, len grows to cap then stays
	next  []int     // next write position per rank
	total []uint64  // events ever observed per rank (>= len(rings[r]))
}

// DefaultFlightCap is the per-rank ring capacity used by callers that
// do not want to choose one: large enough to hold the closing
// exchanges of a phase, small enough that P=4096 recorders stay in the
// tens of megabytes.
const DefaultFlightCap = 256

// NewFlightRecorder builds a recorder for procs ranks with the given
// per-rank ring capacity (DefaultFlightCap when capacity <= 0).
func NewFlightRecorder(procs, capacity int) (*FlightRecorder, error) {
	if procs < 1 {
		return nil, fmt.Errorf("sim: flight recorder needs procs >= 1, got %d", procs)
	}
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{
		procs: procs,
		cap:   capacity,
		rings: make([][]Event, procs),
		next:  make([]int, procs),
		total: make([]uint64, procs),
	}, nil
}

// MustNewFlightRecorder is NewFlightRecorder for arguments known to be
// valid.
func MustNewFlightRecorder(procs, capacity int) *FlightRecorder {
	f, err := NewFlightRecorder(procs, capacity)
	if err != nil {
		panic(err)
	}
	return f
}

// Procs returns the rank count the recorder was built for.
func (f *FlightRecorder) Procs() int { return f.procs }

// Capacity returns the per-rank ring capacity.
func (f *FlightRecorder) Capacity() int { return f.cap }

// note records one event into its rank's ring, overwriting the oldest
// entry once the ring is full. Called from the trace emit path by the
// owning rank only; events with an out-of-range rank are dropped (the
// recorder may be smaller than a misconfigured machine, and a bounds
// branch beats a crash inside the crash recorder).
func (f *FlightRecorder) note(ev Event) {
	r := ev.Rank
	if r < 0 || r >= f.procs {
		return
	}
	ring := f.rings[r]
	if len(ring) < f.cap {
		f.rings[r] = append(ring, ev)
	} else {
		ring[f.next[r]] = ev
	}
	f.next[r]++
	if f.next[r] == f.cap {
		f.next[r] = 0
	}
	f.total[r]++
}

// Note is the exported entry point for backends outside this package
// (the real transport) that feed the recorder from their own emit
// paths. Same ownership contract as note.
func (f *FlightRecorder) Note(ev Event) { f.note(ev) }

// Snapshot returns each rank's retained events oldest-first. The rows
// are copies; the caller may keep them across later runs. Only call
// after the run has finished.
func (f *FlightRecorder) Snapshot() [][]Event {
	out := make([][]Event, f.procs)
	for r, ring := range f.rings {
		if len(ring) < f.cap {
			out[r] = append([]Event(nil), ring...)
			continue
		}
		row := make([]Event, 0, f.cap)
		row = append(row, ring[f.next[r]:]...)
		row = append(row, ring[:f.next[r]]...)
		out[r] = row
	}
	return out
}

// Total returns how many events rank r ever pushed through its ring
// (retained or overwritten); 0 for out-of-range ranks.
func (f *FlightRecorder) Total(r int) uint64 {
	if r < 0 || r >= f.procs {
		return 0
	}
	return f.total[r]
}

// Reset clears every ring so one recorder can be reused across runs.
func (f *FlightRecorder) Reset() {
	for r := range f.rings {
		f.rings[r] = f.rings[r][:0]
		f.next[r] = 0
		f.total[r] = 0
	}
}
