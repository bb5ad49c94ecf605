package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"packunpack/internal/sim"
)

// This file exports a capture in the Chrome trace-event JSON format,
// which Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
// Each processor becomes one thread track holding "X" (complete) slices
// from the span timeline; send→receive pairs become flow events ("s"
// start on the sender, "f" finish on the receiver), which the viewers
// draw as arrows between tracks — the SSS request storms versus the
// CMS single-exchange pattern become directly visible. Timestamps are
// the emulator's virtual microseconds (the trace-event unit is also
// microseconds, so no scaling is applied).

// chromeEvent is one trace-event record. Field order is fixed by the
// struct, and encoding/json emits struct fields in declaration order,
// so the export is byte-stable — the golden test depends on that.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	ID   string      `json:"id,omitempty"`
	BP   string      `json:"bp,omitempty"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the args payload; pointers-to-struct with omitempty
// keep absent groups out of the JSON entirely.
type chromeArgs struct {
	Name  string `json:"name,omitempty"`  // metadata events
	Phase string `json:"phase,omitempty"` // slices
	Kind  string `json:"kind,omitempty"`
	Src   *int   `json:"src,omitempty"` // flows
	Dst   *int   `json:"dst,omitempty"`
	Tag   *int   `json:"tag,omitempty"`
	Words *int   `json:"words,omitempty"`
	Ops   *int64 `json:"ops,omitempty"`     // charge batches
	Wait  *int64 `json:"wait_us,omitempty"` // service spans: queue wait
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func intp(v int) *int       { return &v }
func int64p(v int64) *int64 { return &v }

// spanKind labels a span for the slice name and category.
func spanKind(comm bool) string {
	if comm {
		return "comm"
	}
	return "comp"
}

// WriteChrome writes the capture as Chrome trace-event JSON. The
// output is deterministic for a deterministic capture (cooperative
// scheduling), which the golden test locks in.
func WriteChrome(w io.Writer, c *Capture) error {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Args: &chromeArgs{Name: "packunpack machine"}},
	}
	for rank := 0; rank < c.Procs; rank++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: rank,
			Args: &chromeArgs{Name: fmt.Sprintf("p%d", rank)},
		})
	}

	// Slices: one "X" event per recorded span.
	for rank, row := range c.Spans {
		for _, s := range row {
			evs = append(evs, chromeEvent{
				Name: s.Phase + "/" + spanKind(s.Comm),
				Cat:  spanKind(s.Comm),
				Ph:   "X",
				Ts:   s.Start,
				Dur:  s.End - s.Start,
				Tid:  rank,
				Args: &chromeArgs{Phase: s.Phase, Kind: spanKind(s.Comm)},
			})
		}
	}

	// Flows and instants from the event stream. Flow start ("s") sits at
	// the send completion on the sender track, flow finish ("f", binding
	// point "e" = enclosing slice) at the wake on the receiver track;
	// viewers match them by (cat, name, id).
	for rank, row := range c.Events {
		for _, e := range row {
			switch e.Kind {
			case sim.EvSend:
				evs = append(evs, chromeEvent{
					Name: "msg", Cat: "flow", Ph: "s",
					Ts: e.Time, Tid: rank, ID: fmt.Sprintf("%#x", e.MsgID),
					Args: &chromeArgs{Src: intp(rank), Dst: intp(e.Peer), Tag: intp(e.Tag), Words: intp(e.Words)},
				})
			case sim.EvRecvWake:
				if e.MsgID == 0 {
					continue // untraced sender; no flow to draw
				}
				evs = append(evs, chromeEvent{
					Name: "msg", Cat: "flow", Ph: "f", BP: "e",
					Ts: e.Time, Tid: rank, ID: fmt.Sprintf("%#x", e.MsgID),
					Args: &chromeArgs{Src: intp(e.Peer), Dst: intp(rank), Tag: intp(e.Tag), Words: intp(e.Words)},
				})
			case sim.EvPhase:
				evs = append(evs, chromeEvent{
					Name: "phase:" + e.Phase, Cat: "phase", Ph: "i", S: "t",
					Ts: e.Time, Tid: rank,
				})
			case sim.EvDedup:
				// Receiver-side recovery: Peer is the duplicate's source.
				evs = append(evs, chromeEvent{
					Name: "dedup", Cat: "fault", Ph: "i", S: "t",
					Ts: e.Time, Tid: rank,
					Args: &chromeArgs{Kind: "dedup", Src: intp(e.Peer), Dst: intp(rank), Tag: intp(e.Tag)},
				})
			case sim.EvFaultDrop, sim.EvFaultDup, sim.EvFaultReorder, sim.EvFaultDelay,
				sim.EvRetry:
				// Injection and recovery markers from the fault layer
				// (sim/fault.go). Rendered as thread-scoped instants in
				// their own "fault" category so Perfetto can filter
				// them; fault-free captures emit none, keeping the
				// golden export unchanged.
				evs = append(evs, chromeEvent{
					Name: e.Kind.String(), Cat: "fault", Ph: "i", S: "t",
					Ts: e.Time, Tid: rank,
					Args: &chromeArgs{Kind: e.Kind.String(), Dst: intp(e.Peer), Tag: intp(e.Tag), Words: intp(e.Words)},
				})
			case sim.EvFaultStall:
				// Stalls have real virtual duration, so draw them as a
				// slice on the stalled processor's track.
				evs = append(evs, chromeEvent{
					Name: "fault-stall", Cat: "fault", Ph: "X",
					Ts: e.Time - e.Dur, Dur: e.Dur, Tid: rank,
					Args: &chromeArgs{Kind: "fault-stall"},
				})
			case sim.EvCharge:
				// Slices already show the computation; a counter-style
				// instant would only duplicate them. Expose the batch ops
				// as an instant only when there is no span timeline.
				if len(c.Spans) > rank && len(c.Spans[rank]) > 0 {
					continue
				}
				evs = append(evs, chromeEvent{
					Name: "charge", Cat: "comp", Ph: "i", S: "t",
					Ts: e.Time, Tid: rank, Args: &chromeArgs{Ops: int64p(e.Ops)},
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{DisplayTimeUnit: "ms", TraceEvents: evs})
}

// SummarizeChrome reads a Chrome trace-event JSON file this repo wrote
// (packtrace -format chrome, packbench -trace-dir, or a flight-recorder
// dump) and renders a text digest: overall event count and time window,
// then one line per thread track with its slice/flow/instant counts.
// This is what `packtrace -open` uses, so a post-mortem dump can be
// inspected without leaving the terminal.
func SummarizeChrome(w io.Writer, r io.Reader) error {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("trace: not a Chrome trace-event file: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return errors.New("trace: Chrome file has no traceEvents")
	}

	type track struct {
		name                           string
		slices, sends, recvs, instants int
		lo, hi                         float64
		seen                           bool
	}
	tracks := map[int]*track{}
	get := func(tid int) *track {
		t := tracks[tid]
		if t == nil {
			t = &track{}
			tracks[tid] = t
		}
		return t
	}
	see := func(t *track, ts float64) {
		if !t.seen || ts < t.lo {
			t.lo = ts
		}
		if !t.seen || ts > t.hi {
			t.hi = ts
		}
		t.seen = true
	}
	var total int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" && e.Args != nil {
				get(e.Tid).name = e.Args.Name
			}
			continue
		case "X":
			t := get(e.Tid)
			t.slices++
			see(t, e.Ts)
			see(t, e.Ts+e.Dur)
		case "s":
			t := get(e.Tid)
			t.sends++
			see(t, e.Ts)
		case "f":
			t := get(e.Tid)
			t.recvs++
			see(t, e.Ts)
		case "i":
			t := get(e.Tid)
			t.instants++
			see(t, e.Ts)
		default:
			continue
		}
		total++
	}

	tids := make([]int, 0, len(tracks))
	var lo, hi float64
	first := true
	for tid, t := range tracks {
		tids = append(tids, tid)
		if !t.seen {
			continue
		}
		if first || t.lo < lo {
			lo = t.lo
		}
		if first || t.hi > hi {
			hi = t.hi
		}
		first = false
	}
	sort.Ints(tids)
	fmt.Fprintf(w, "chrome trace: %d events on %d tracks, window [%.3f, %.3f] µs\n", total, len(tids), lo, hi)
	for _, tid := range tids {
		t := tracks[tid]
		name := t.name
		if name == "" {
			name = fmt.Sprintf("tid%d", tid)
		}
		fmt.Fprintf(w, "  %-6s %4d slices, %4d sends, %4d recvs, %4d instants",
			name, t.slices, t.sends, t.recvs, t.instants)
		if t.seen {
			fmt.Fprintf(w, ", window [%.3f, %.3f]", t.lo, t.hi)
		}
		fmt.Fprintln(w)
	}
	return nil
}
