package main

// Outside-in tracing. Each rank of a traced machine run gets a
// tracedEP: it embeds the rank's Endpoint and overrides only SetPhase,
// Send and Recv, so it keeps compiling whatever else the interface
// grows or loses. The events it logs (plus call and body marks the
// benchmark's own SPMD bodies add) are turned into spans once the run
// is over; a span's self time is its length minus its children, and
// every nanosecond of an op lands in exactly one bucket, with the
// benchmark's own glue between calls kept as an explicit remainder.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	pu "packunpack"
)

type evKind uint8

const (
	evBodyStart evKind = iota
	evBodyEnd
	evCallStart // name: "pack" or "unpack"
	evCallEnd
	evPhase // name: the phase switched to
	evRecvStart
	evRecvEnd
	evSendStart
	evSendEnd
)

type event struct {
	t    int64 // ns since the tracer's base
	kind evKind
	name string
}

// rankLog is one rank's event buffer for one op; only that rank's
// goroutine appends to it.
type rankLog struct {
	ev []event
}

func (l *rankLog) add(t int64, k evKind, name string) {
	l.ev = append(l.ev, event{t: t, kind: k, name: name})
}

// tracer owns the clock base and the per-op logs of one traced pass.
type tracer struct {
	base  time.Time
	procs int
	cur   []*rankLog // logs of the op in flight, by rank
	ops   []tracedOp // finished ops, kept in memory until exit
}

type tracedOp struct {
	id         int
	start, end int64 // Run call and return, from the calling goroutine
	ranks      [][]event
	cached     bool
	localSize  int // local mask elements per rank, scanned by every ranking call
}

func newTracer(procs int) *tracer {
	return &tracer{base: time.Now(), procs: procs}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin prepares fresh rank logs for the next op.
func (t *tracer) begin() {
	t.cur = make([]*rankLog, t.procs)
	for i := range t.cur {
		t.cur[i] = &rankLog{ev: make([]event, 0, 64)}
	}
}

// finish files the op whose Run call spanned [start, end].
func (t *tracer) finish(start, end int64, cached bool, localSize int) {
	op := tracedOp{id: len(t.ops), start: start, end: end, cached: cached, localSize: localSize}
	op.ranks = make([][]event, t.procs)
	for i, l := range t.cur {
		op.ranks[i] = l.ev
	}
	t.ops = append(t.ops, op)
}

// wrap returns the traced view of ep; nil tracer means untraced.
func (t *tracer) wrap(ep pu.Endpoint) (pu.Endpoint, *rankLog) {
	if t == nil {
		return ep, nil
	}
	l := t.cur[ep.Rank()]
	return &tracedEP{Endpoint: ep, log: l, tr: t}, l
}

// mark records a benchmark-side event (body and call boundaries).
func (t *tracer) mark(l *rankLog, k evKind, name string) {
	if l != nil {
		l.add(t.now(), k, name)
	}
}

type tracedEP struct {
	pu.Endpoint
	log *rankLog
	tr  *tracer
}

func (e *tracedEP) SetPhase(name string) string {
	e.log.add(e.tr.now(), evPhase, name)
	return e.Endpoint.SetPhase(name)
}

func (e *tracedEP) Send(dst, tag int, payload any, words int) {
	e.log.add(e.tr.now(), evSendStart, "")
	e.Endpoint.Send(dst, tag, payload, words)
	e.log.add(e.tr.now(), evSendEnd, "")
}

func (e *tracedEP) Recv(src, tag int) (any, int) {
	e.log.add(e.tr.now(), evRecvStart, "")
	p, w := e.Endpoint.Recv(src, tag)
	e.log.add(e.tr.now(), evRecvEnd, "")
	return p, w
}

// Attribution buckets of one machine-run op. Every interval of a rank's
// timeline lands in exactly one of them.
const (
	bRunJoin     = "transport.runjoin_us"   // Run call→body start + body end→Run return
	bRecvWait    = "transport.recv_wait_us" // blocked in Recv
	bSend        = "transport.send_us"      // inside Send
	bPRS         = "comm.prs_us"            // prs phase, minus Recv/Send
	bA2A         = "comm.a2a_us"            // m2m/redist phase, minus Recv/Send
	bScan        = "ranking.scan_us"        // local ranking work before/between ranking PRS rounds
	bFingerprint = "pack.fingerprint_us"    // cached call → agreement PRS
	bCompose     = "pack.compose_us"        // last PRS → last m2m (incl. compile walk on a miss)
	bPlace       = "pack.place_us"          // last m2m → return
	bGlue        = "attrib.glue_us"         // benchmark code inside the body, outside any call
)

var opBuckets = []string{bRunJoin, bRecvWait, bSend, bPRS, bA2A, bScan, bFingerprint, bCompose, bPlace, bGlue}

// opBreakdown is the rank-averaged attribution of one op, in µs.
type opBreakdown struct {
	opUS     float64
	buckets  map[string]float64
	packUS   float64 // PACK call span
	unpackUS float64 // UNPACK call span
	scanElem float64 // elements scanned by ranking in this op, rank mean
}

type interval struct {
	t0, t1 int64
	phase  string
	sub    evKind // evRecvStart, evSendStart or 0 for local work
}

// attribute splits one traced op into buckets, averaging over ranks.
func attribute(op tracedOp) opBreakdown {
	bd := opBreakdown{opUS: us(op.end - op.start), buckets: map[string]float64{}}
	n := float64(len(op.ranks))
	for _, ev := range op.ranks {
		var bodyStart, bodyEnd int64 = op.start, op.end
		phase := "default"
		var sub evKind
		inCall := ""
		var callStart int64
		var calls [][]interval
		var cur []interval
		last := op.start
		flush := func(t int64) {
			if t <= last {
				return
			}
			if inCall != "" {
				cur = append(cur, interval{t0: last, t1: t, phase: phase, sub: sub})
			} else if last >= bodyStart {
				bd.buckets[bGlue] += us(t-last) / n
			}
			last = t
		}
		for _, e := range ev {
			switch e.kind {
			case evBodyStart:
				bodyStart, last = e.t, e.t
			case evBodyEnd:
				flush(e.t)
				bodyEnd = e.t
			case evCallStart:
				flush(e.t)
				inCall, callStart, cur = e.name, e.t, nil
			case evCallEnd:
				flush(e.t)
				calls = append(calls, cur)
				d := us(e.t-callStart) / n
				if inCall == "pack" {
					bd.packUS += d
				} else {
					bd.unpackUS += d
				}
				inCall = ""
			case evPhase:
				flush(e.t)
				phase = e.name
			case evRecvStart, evSendStart:
				flush(e.t)
				sub = e.kind
			case evRecvEnd, evSendEnd:
				flush(e.t)
				sub = 0
			}
		}
		bd.buckets[bRunJoin] += us((bodyStart-op.start)+(op.end-bodyEnd)) / n
		for _, c := range calls {
			if attributeCall(c, op.cached, bd.buckets, n) {
				bd.scanElem += float64(op.localSize) / n
			}
		}
	}
	return bd
}

// attributeCall places the intervals of one PACK/UNPACK call and
// reports whether the call ran the ranking stage: an uncached call
// always does, a cached one only when it misses (its agreement PRS is
// then followed by the ranking's own).
func attributeCall(c []interval, cached bool, b map[string]float64, n float64) (ranked bool) {
	firstPRS, lastPRSEnd, lastA2AStart := int64(-1), int64(-1), int64(-1)
	prsSpans := 0
	prev := ""
	for _, iv := range c {
		switch iv.phase {
		case "prs":
			if firstPRS < 0 {
				firstPRS = iv.t0
			}
			if prev != "prs" {
				prsSpans++
			}
			lastPRSEnd = iv.t1
		case "m2m", "redist":
			if prev != "m2m" && prev != "redist" {
				lastA2AStart = iv.t0
			}
		}
		prev = iv.phase
	}
	for _, iv := range c {
		d := us(iv.t1-iv.t0) / n
		switch {
		case iv.sub == evRecvStart:
			b[bRecvWait] += d
		case iv.sub == evSendStart:
			b[bSend] += d
		case iv.phase == "prs":
			b[bPRS] += d
		case iv.phase == "m2m" || iv.phase == "redist":
			b[bA2A] += d
		case firstPRS < 0 || iv.t1 <= firstPRS:
			if cached {
				b[bFingerprint] += d
			} else {
				b[bScan] += d
			}
		case iv.t0 < lastPRSEnd:
			b[bScan] += d
		case lastA2AStart >= 0 && iv.t1 <= lastA2AStart:
			b[bCompose] += d
		default:
			b[bPlace] += d
		}
	}
	return !cached || prsSpans > 1
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// breakdownSum accumulates op breakdowns, and the machine's message
// counters, into per-op means.
type breakdownSum struct {
	ops         int
	opUS        float64
	buckets     map[string]float64
	packUS      float64
	unpackUS    float64
	scanElem    float64
	msgs, words int64
}

// addStats folds in the counters of the machine's last Run.
func (s *breakdownSum) addStats(stats []pu.Stats) {
	for _, st := range stats {
		s.msgs += st.MsgsSent
		s.words += st.WordsSent
	}
}

func (s *breakdownSum) add(bd opBreakdown) {
	if s.buckets == nil {
		s.buckets = map[string]float64{}
	}
	s.ops++
	s.opUS += bd.opUS
	for k, v := range bd.buckets {
		s.buckets[k] += v
	}
	s.packUS += bd.packUS
	s.unpackUS += bd.unpackUS
	s.scanElem += bd.scanElem
}

func (s *breakdownSum) mean(k string) float64 {
	if s.ops == 0 {
		return 0
	}
	return s.buckets[k] / float64(s.ops)
}

// spanRecord is one span of the trace file written at exit.
type spanRecord struct {
	Op     int     `json:"op"`
	Rank   int     `json:"rank"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent string  `json:"parent"`
}

// spans turns a traced op's events into nested spans: op ⊃ body ⊃ call
// ⊃ phase ⊃ recv/send.
func (op tracedOp) spans(prefix string) []spanRecord {
	out := []spanRecord{{Op: op.id, Rank: -1, Name: prefix + "op", Start: us(op.start), End: us(op.end)}}
	for r, ev := range op.ranks {
		open := map[string]int64{}
		parent := []string{prefix + "op"}
		push := func(name string, t int64) { open[name] = t; parent = append(parent, name) }
		pop := func(name string, t int64) {
			if t0, ok := open[name]; ok {
				parent = parent[:len(parent)-1]
				out = append(out, spanRecord{Op: op.id, Rank: r, Name: name, Start: us(t0), End: us(t), Parent: parent[len(parent)-1]})
				delete(open, name)
			}
		}
		phase := ""
		for _, e := range ev {
			switch e.kind {
			case evBodyStart:
				push("body", e.t)
			case evBodyEnd:
				pop("body", e.t)
			case evCallStart:
				push(e.name, e.t)
			case evCallEnd:
				if phase != "" {
					pop(phase, e.t)
					phase = ""
				}
				pop(parent[len(parent)-1], e.t)
			case evPhase:
				if phase != "" {
					pop(phase, e.t)
					phase = ""
				}
				if e.name != "default" {
					phase = e.name
					push(phase, e.t)
				}
			case evRecvStart:
				push("recv", e.t)
			case evRecvEnd:
				pop("recv", e.t)
			case evSendStart:
				push("send", e.t)
			case evSendEnd:
				pop("send", e.t)
			}
		}
	}
	return out
}

// writeSpans writes every kept span as JSON lines into dir.
func writeSpans(dir, name string, recs []spanRecord) error {
	if dir == "" || len(recs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
