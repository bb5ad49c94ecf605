package trace

// This file is the flight recorder: a ring sink that keeps a
// fixed-size window of the most recent events of every rank, cheap
// enough to leave attached during long runs (where a RetainSink is
// O(total events), the recorder is O(P × capacity)), plus the
// post-mortem end — classify a failed run, and turn the bounded window
// into something a human can open: a Chrome-loadable trace of the
// machine's final moments plus a text summary of who was doing what
// when it died. ViPIOS-style reasoning (PAPERS.md): a long-running
// redistribution system must explain its failures after the fact, so
// the dump path triggers itself on the error classes that leave no
// other evidence: structural deadlock (both backends' deadlock proofs
// identify as sim.ErrDeadlock) and exhausted fault-retry budgets
// (sim.FaultBudgetError).
//
// Concurrency contract: like every per-rank sink, ring r is written
// only by rank r's emit path. On the emulator all writes are
// serialized anyway; on the real backend ranks write concurrently to
// disjoint rings, which is race-free without locks. Snapshot must only
// be called once the run has finished.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"packunpack/internal/sim"
)

// FlightRecorder holds one fixed-capacity event ring per rank. Build
// one with NewFlightRecorder, attach it as (or inside a Tee on) the
// machine's Sink, and read it with Snapshot after the run returned an
// error.
type FlightRecorder struct {
	procs int
	cap   int
	rings [][]sim.Event // rings[r] has capacity cap, len grows to cap then stays
	next  []int         // next write position per rank
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
		return nil, fmt.Errorf("trace: flight recorder needs procs >= 1, got %d", procs)
	}
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{
		procs: procs,
		cap:   capacity,
		rings: make([][]sim.Event, procs),
		next:  make([]int, procs),
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

// Emit records one event into its rank's ring, overwriting the oldest
// entry once the ring is full. Events with an out-of-range rank are
// dropped: a bounds branch beats a crash inside the crash recorder.
func (f *FlightRecorder) Emit(ev sim.Event) {
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
}

// Snapshot returns each rank's retained events oldest-first. The rows
// are copies; the caller may keep them across later runs. Only call
// after the run has finished.
func (f *FlightRecorder) Snapshot() [][]sim.Event {
	out := make([][]sim.Event, f.procs)
	for r, ring := range f.rings {
		if len(ring) < f.cap {
			out[r] = append([]sim.Event(nil), ring...)
			continue
		}
		row := make([]sim.Event, 0, f.cap)
		row = append(row, ring[f.next[r]:]...)
		row = append(row, ring[:f.next[r]]...)
		out[r] = row
	}
	return out
}

// ShouldDumpFlight classifies a run error: true for the failure modes
// whose post-mortem lives in the flight recorder — structural deadlock
// (the emulator scheduler's proof or the real backend's park-state
// proof; both match sim.ErrDeadlock) and fault-budget exhaustion.
// Root-cause panics carry their own stack and do not trigger a dump.
func ShouldDumpFlight(err error) bool {
	return err != nil && (errors.Is(err, sim.ErrDeadlock) || sim.IsFaultBudget(err))
}

// FlightCapture wraps a flight recorder's snapshot as a Capture so
// every exporter in this package (Chrome, matrix, the dump below) can
// consume the bounded window like any other event stream. Stats may be
// nil when the machine died before publishing them.
func FlightCapture(procs int, params sim.Params, stats []sim.Stats, fr *FlightRecorder) *Capture {
	return &Capture{
		Procs:  procs,
		Params: params,
		Stats:  stats,
		Events: fr.Snapshot(),
	}
}

// flightLabel sanitizes a dump label into a filename stem.
func flightLabel(label string) string {
	if label == "" {
		return "run"
	}
	var sb strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteRune('-')
		}
	}
	return sb.String()
}

// DumpFlight writes the capture's flight window under dir as
// <label>.flight.trace.json (Chrome trace-event JSON, loadable in
// Perfetto — packtrace -open renders the same file as text) and
// <label>.flight.txt (the summary WriteFlightSummary produces), and
// returns both paths.
func DumpFlight(dir, label string, c *Capture, reason error) (tracePath, summaryPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("trace: flight dump: %w", err)
	}
	stem := flightLabel(label)
	tracePath = filepath.Join(dir, stem+".flight.trace.json")
	summaryPath = filepath.Join(dir, stem+".flight.txt")

	tf, err := os.Create(tracePath)
	if err != nil {
		return "", "", fmt.Errorf("trace: flight dump: %w", err)
	}
	werr := WriteChrome(tf, c)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", "", fmt.Errorf("trace: flight dump: %w", werr)
	}

	sf, err := os.Create(summaryPath)
	if err != nil {
		return "", "", fmt.Errorf("trace: flight dump: %w", err)
	}
	WriteFlightSummary(sf, c, reason)
	if err := sf.Close(); err != nil {
		return "", "", fmt.Errorf("trace: flight dump: %w", err)
	}
	return tracePath, summaryPath, nil
}

// WriteFlightSummary renders the human-readable post-mortem: the
// reason, then one line per rank with its retained window and final
// recorded action — for a deadlocked rank that is the receive it was
// parked in, which together reconstructs the wait-for picture the
// machine died with.
func WriteFlightSummary(w io.Writer, c *Capture, reason error) {
	fmt.Fprintf(w, "flight recorder post-mortem (%d ranks)\n", c.Procs)
	if reason != nil {
		fmt.Fprintf(w, "reason: %v\n", reason)
	}
	fmt.Fprintln(w)
	for rank := 0; rank < c.Procs; rank++ {
		var row []sim.Event
		if rank < len(c.Events) {
			row = c.Events[rank]
		}
		if len(row) == 0 {
			fmt.Fprintf(w, "p%-4d no events retained\n", rank)
			continue
		}
		last := row[len(row)-1]
		fmt.Fprintf(w, "p%-4d %d events retained, window [%.3f, %.3f] µs, last: %s",
			rank, len(row), row[0].Time, last.Time, last.Kind)
		switch last.Kind {
		case sim.EvRecvBlock:
			fmt.Fprintf(w, " — parked waiting for (src=%d, tag=%d) since t=%.3f in phase %q",
				last.Peer, last.Tag, last.Time, last.Phase)
		case sim.EvSend, sim.EvDeliver:
			fmt.Fprintf(w, " — to p%d tag %d, %d words, phase %q", last.Peer, last.Tag, last.Words, last.Phase)
		case sim.EvRecvWake:
			fmt.Fprintf(w, " — from p%d tag %d, phase %q", last.Peer, last.Tag, last.Phase)
		default:
			fmt.Fprintf(w, " — phase %q", last.Phase)
		}
		fmt.Fprintln(w)
	}
	// Tail of each rank's window, newest last, for the fine grain the
	// one-liners compress away.
	const tailLen = 5
	fmt.Fprintf(w, "\nlast %d events per rank:\n", tailLen)
	for rank := 0; rank < c.Procs; rank++ {
		var row []sim.Event
		if rank < len(c.Events) {
			row = c.Events[rank]
		}
		start := len(row) - tailLen
		if start < 0 {
			start = 0
		}
		for _, e := range row[start:] {
			fmt.Fprintf(w, "  p%-4d t=%12.3f %-12s peer=%-4d tag=%-6d words=%-6d phase=%s\n",
				rank, e.Time, e.Kind, e.Peer, e.Tag, e.Words, e.Phase)
		}
	}
}
