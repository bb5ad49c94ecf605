package transport

// This file is the real shared-memory parallel backend (BackendReal):
// the P processor bodies of an SPMD run execute as host goroutines —
// locked to OS threads when the host has at least P cores, which is as
// close to core pinning as the Go runtime allows — and exchange
// messages through unbounded lock-free SPSC queues, one per ordered
// processor pair (spsc.go). Nothing is virtual: Charge only counts and
// Clock reads the wall.
//
// Message semantics mirror the emulator exactly — eager non-blocking
// sends, FIFO per (source, destination, tag) stream, tag-matched
// receives with out-of-tag-order messages parked at the receiver — so
// any algorithm written against transport.Endpoint produces
// byte-identical results on both backends (pinned by the cross-backend
// conformance suite). Observability carries over too: with
// RealConfig.Sink the backend emits the same structured sim.Event
// stream — wall-clock microsecond timestamps instead of virtual time,
// same message-id scheme. What does NOT carry over is the model side:
// virtual clocks, cost charging, and fault injection are emulator
// devices (they need an omniscient network), so realProc is a plain
// Endpoint, not a FaultEndpoint, and the reliable transport's fault
// path never engages.
//
// Deadlock detection is a structural proof, like the emulator's: a
// rank that parks in Recv records the source it waits on, and when a
// park or a body return leaves no rank running, the run is wedged
// exactly when every parked rank's awaited queue is empty. Only a
// running rank can send, so that state cannot change any more, and a
// parked rank touches its queue only after it unparks under the same
// mutex, so the check races with nothing. Every waiter is then unwound
// with a diagnostic instead of hanging the process. A panic in one
// body likewise unwinds the peers through the same abort channel.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"packunpack/internal/sim"
)

// RealConfig describes a real shared-memory machine.
type RealConfig struct {
	// Procs is the number of logical processors, P >= 1. Values above
	// the host's core count are allowed (the Go scheduler multiplexes);
	// speedup then flattens, which is itself a measurement.
	Procs int
	// Params are the cost-model constants. The real backend never
	// charges them, but algorithm selection rules (the PRS auto rule)
	// read them, so configuring the same constants as the sim oracle
	// keeps both backends taking identical decisions.
	Params sim.Params
	// Sink, when non-nil, receives every structured event (sim.Event
	// schema, wall-clock microsecond timestamps) as it is produced —
	// the real-backend counterpart of sim.Config.Sink, and like it the
	// machine's only telemetry output. Ranks call Emit concurrently; the
	// sink must be safe for that. A sink built for fewer ranks than
	// Procs (sim.SizedSink) is rejected by NewReal.
	Sink sim.EventSink
}

// RealMachine is a Machine whose processors run genuinely in parallel
// on the host.
type RealMachine struct {
	cfg    RealConfig
	queues [][]*spscQueue // queues[src][dst]

	running atomic.Bool

	// Abort state, reset per run.
	aborted  chan struct{}
	abortErr atomic.Pointer[realDeadlockError]
	runStart time.Time

	// Deadlock-proof state, reset per run. Only the park, unpark and
	// body-return paths take parkMu.
	parkMu  sync.Mutex
	live    int   // ranks neither parked in Recv nor returned
	waitSrc []int // per rank: the source it is parked on, -1 otherwise

	mu    sync.Mutex
	stats []sim.Stats
}

// realDeadlockError unwinds a processor when the machine is proven
// wedged (or a peer panicked first).
type realDeadlockError struct {
	rank, src, tag int
	peerPanic      bool
}

func (e *realDeadlockError) Error() string {
	if e.peerPanic {
		return fmt.Sprintf("transport: processor %d unwound from Recv(src=%d, tag=%d) after a peer failed", e.rank, e.src, e.tag)
	}
	return fmt.Sprintf("transport: deadlock: processor %d waiting for a message from %d with tag %d that never arrives", e.rank, e.src, e.tag)
}

// Is makes errors.Is(err, sim.ErrDeadlock) hold for proven deadlocks.
// Peer-panic unwinds are collateral of another failure, not a
// deadlock, so they do not match.
func (e *realDeadlockError) Is(target error) bool {
	return target == sim.ErrDeadlock && !e.peerPanic
}

// NewReal builds a real shared-memory machine.
func NewReal(cfg RealConfig) (*RealMachine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("transport: Procs must be >= 1, got %d", cfg.Procs)
	}
	if cfg.Params.Tau < 0 || cfg.Params.Mu < 0 || cfg.Params.Delta < 0 {
		return nil, fmt.Errorf("transport: negative cost parameters %+v", cfg.Params)
	}
	if s, ok := cfg.Sink.(sim.SizedSink); ok && s.Procs() < cfg.Procs {
		return nil, fmt.Errorf("transport: event sink built for %d ranks cannot cover P=%d", s.Procs(), cfg.Procs)
	}
	m := &RealMachine{cfg: cfg, queues: make([][]*spscQueue, cfg.Procs), waitSrc: make([]int, cfg.Procs)}
	for s := range m.queues {
		m.queues[s] = make([]*spscQueue, cfg.Procs)
		for d := range m.queues[s] {
			m.queues[s][d] = newSpscQueue()
		}
	}
	return m, nil
}

// MustNewReal is NewReal for configurations known to be valid.
func MustNewReal(cfg RealConfig) *RealMachine {
	m, err := NewReal(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *RealMachine) Procs() int         { return m.cfg.Procs }
func (m *RealMachine) Params() sim.Params { return m.cfg.Params }
func (m *RealMachine) Backend() Backend   { return BackendReal }

// Run executes body once per processor, each on its own goroutine, and
// blocks until every processor finishes. Like the emulator it may be
// called repeatedly (queues are reused, and every exit path leaves
// them empty) but not concurrently.
func (m *RealMachine) Run(body func(Endpoint)) error {
	if !m.running.CompareAndSwap(false, true) {
		return fmt.Errorf("transport: RealMachine.Run called concurrently on the same machine")
	}
	defer m.running.Store(false)

	n := m.cfg.Procs
	m.aborted = make(chan struct{})
	m.abortErr.Store(nil)
	m.live = n
	for i := range m.waitSrc {
		m.waitSrc[i] = -1
	}
	pin := n <= runtime.NumCPU()

	procs := make([]*realProc, n)
	for i := range procs {
		in := make([]*spscQueue, n)
		for s := 0; s < n; s++ {
			in[s] = m.queues[s][i]
		}
		procs[i] = &realProc{
			rank: i, m: m, in: in,
			pending: make([][]rmsg, n),
			phase:   "default",
			stats:   sim.Stats{Rank: i},
			tr:      m.cfg.Sink != nil,
		}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	m.runStart = time.Now()
	for i := range procs {
		go func(p *realProc) {
			defer wg.Done()
			defer m.retire()
			defer func() {
				if r := recover(); r != nil {
					errs[p.rank] = recoverRealErr(p.rank, r)
					m.abort(true)
				}
				p.stats.Clock = p.clockNow()
			}()
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			body(p)
		}(procs[i])
	}
	wg.Wait()

	m.mu.Lock()
	m.stats = make([]sim.Stats, n)
	for i, p := range procs {
		m.stats[i] = p.stats
	}
	m.mu.Unlock()

	// Drain on every exit path, so a later Run never receives this
	// one's leftovers.
	leftover := 0
	for _, row := range m.queues {
		for _, q := range row {
			leftover += q.drainCount()
		}
	}
	for _, p := range procs {
		for _, stash := range p.pending {
			leftover += len(stash)
		}
	}

	var primary, unwinds []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var de *realDeadlockError
		if errors.As(err, &de) {
			unwinds = append(unwinds, err)
		} else {
			primary = append(primary, err)
		}
	}
	switch {
	case len(primary) > 0:
		return errors.Join(primary...)
	case len(unwinds) > 0:
		return errors.Join(unwinds...)
	case leftover != 0:
		return fmt.Errorf("transport: run finished with %d undelivered messages", leftover)
	}
	return nil
}

// recoverRealErr converts a recovered panic value into a per-rank
// error, preserving unwind identity so Run can prefer root causes.
func recoverRealErr(rank int, r any) error {
	if de, ok := r.(*realDeadlockError); ok {
		return de
	}
	return fmt.Errorf("transport: processor %d panicked: %v", rank, r)
}

// abort wakes every parked receiver so the run can unwind instead of
// hanging; peerPanic records why.
func (m *RealMachine) abort(peerPanic bool) {
	e := &realDeadlockError{peerPanic: peerPanic}
	if m.abortErr.CompareAndSwap(nil, e) {
		close(m.aborted)
	}
}

// park records that rank r waits on its queue from src, and aborts the
// run if that leaves the machine wedged.
func (m *RealMachine) park(r, src int) {
	m.parkMu.Lock()
	m.waitSrc[r] = src
	m.live--
	m.checkWedged()
	m.parkMu.Unlock()
}

// unpark records that rank r runs again.
func (m *RealMachine) unpark(r int) {
	m.parkMu.Lock()
	m.waitSrc[r] = -1
	m.live++
	m.parkMu.Unlock()
}

// retire records that a rank's body returned (or unwound), and aborts
// the run if that leaves the machine wedged.
func (m *RealMachine) retire() {
	m.parkMu.Lock()
	m.live--
	m.checkWedged()
	m.parkMu.Unlock()
}

// checkWedged aborts the run when no rank is running, some rank is
// parked, and every parked rank's awaited queue is empty: no message
// can ever arrive again. A non-empty awaited queue means its rank
// holds a wake-up token and will run (and park again, re-checking).
// Caller holds parkMu.
func (m *RealMachine) checkWedged() {
	if m.live > 0 {
		return
	}
	parked := false
	for r, src := range m.waitSrc {
		if src < 0 {
			continue
		}
		if !m.queues[src][r].empty() {
			return
		}
		parked = true
	}
	if parked {
		m.abort(false)
	}
}

// Stats returns a copy of the per-processor statistics of the most
// recent Run. The real backend fills the counters and wall clocks only:
// it keeps no per-phase split, so Phases is nil (reads of it see no
// phases).
func (m *RealMachine) Stats() []sim.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.stats)
}

// MaxClock returns the largest per-processor wall clock of the most
// recent Run in microseconds.
func (m *RealMachine) MaxClock() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max float64
	for _, s := range m.stats {
		if s.Clock > max {
			max = s.Clock
		}
	}
	return max
}

// realProc is one processor of a real run. Only its own goroutine
// touches it.
type realProc struct {
	rank    int
	m       *RealMachine
	in      []*spscQueue // in[src] delivers src -> me
	pending [][]rmsg     // per-src stash of tag-mismatched arrivals
	phase   string
	stats   sim.Stats

	// Event-tracing state; zero when the machine has no Sink, so every
	// hot-path guard below is a single predictable branch.
	tr    bool   // emit trace events (RealConfig.Sink set)
	seq   uint64 // per-rank event sequence number
	sends uint64 // per-rank message counter for MsgID
}

func (p *realProc) Rank() int          { return p.rank }
func (p *realProc) NProcs() int        { return p.m.cfg.Procs }
func (p *realProc) Params() sim.Params { return p.m.cfg.Params }

// clockNow is wall time since the run started, in microseconds.
func (p *realProc) clockNow() float64 {
	return float64(time.Since(p.m.runStart)) / float64(time.Microsecond)
}

func (p *realProc) Clock() float64 { return p.clockNow() }

func (p *realProc) SetPhase(name string) (previous string) {
	previous = p.phase
	p.phase = name
	if p.tr {
		p.emit(sim.Event{Kind: sim.EvPhase, Time: p.clockNow(), Phase: name})
	}
	return previous
}

// Charge counts the ops; real work takes real time, so nothing else
// moves.
func (p *realProc) Charge(ops int) {
	if ops > 0 {
		p.stats.Ops += int64(ops)
	}
}

func (p *realProc) Send(dst, tag int, payload any, words int) {
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("transport: Send to invalid rank %d (P=%d)", dst, p.m.cfg.Procs))
	}
	if words < 0 {
		panic("transport: Send with negative word count")
	}
	p.stats.MsgsSent++
	p.stats.WordsSent += int64(words)
	var id uint64
	if p.tr {
		p.sends++
		id = sim.MakeMsgID(p.rank, p.sends)
	}
	p.m.queues[p.rank][dst].put(rmsg{tag: tag, payload: payload, words: words, id: id})
	if p.tr {
		now := p.clockNow()
		p.emit(sim.Event{Kind: sim.EvSend, Peer: dst, Tag: tag, Words: words, Time: now, MsgID: id})
		p.emit(sim.Event{Kind: sim.EvDeliver, Peer: dst, Tag: tag, Words: words, Time: now, MsgID: id})
	}
}

func (p *realProc) SendFree(dst, tag int, payload any) {
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("transport: SendFree to invalid rank %d (P=%d)", dst, p.m.cfg.Procs))
	}
	var id uint64
	if p.tr {
		p.sends++
		id = sim.MakeMsgID(p.rank, p.sends)
	}
	p.m.queues[p.rank][dst].put(rmsg{tag: tag, payload: payload, free: true, id: id})
	if p.tr {
		p.emit(sim.Event{Kind: sim.EvDeliver, Peer: dst, Tag: tag, Time: p.clockNow(), MsgID: id})
	}
}

// Recv blocks until a message with the given source and tag arrives.
// Tag-mismatched messages that arrive first are parked per source, so
// streams with different tags from one peer can be consumed in any
// order (matching the emulator's mailbox scan).
func (p *realProc) Recv(src, tag int) (payload any, words int) {
	if src < 0 || src >= p.m.cfg.Procs {
		panic(fmt.Sprintf("transport: Recv from invalid rank %d (P=%d)", src, p.m.cfg.Procs))
	}
	var t0 float64
	if p.tr {
		t0 = p.clockNow()
		p.emit(sim.Event{Kind: sim.EvRecvBlock, Peer: src, Tag: tag, Time: t0})
	}
	msg := p.recvMatch(src, tag)
	if p.tr {
		now := p.clockNow()
		p.emit(sim.Event{Kind: sim.EvRecvWake, Peer: src, Tag: tag, Words: msg.words, Time: now, Dur: now - t0, MsgID: msg.id})
	}
	return msg.payload, msg.words
}

// recvMatch finds the (src, tag) message — stash first, then the SPSC
// queue, parking on its notify channel while empty.
func (p *realProc) recvMatch(src, tag int) rmsg {
	stash := p.pending[src]
	for i, m := range stash {
		if m.tag == tag {
			p.pending[src] = append(stash[:i], stash[i+1:]...)
			return m
		}
	}
	q := p.in[src]
	for {
		m, ok := q.poll()
		if !ok {
			p.m.park(p.rank, src)
			var aborted bool
			select {
			case <-q.notify:
			case <-p.m.aborted:
				aborted = true
			}
			p.m.unpark(p.rank)
			if aborted {
				e := p.m.abortErr.Load()
				panic(&realDeadlockError{rank: p.rank, src: src, tag: tag, peerPanic: e != nil && e.peerPanic})
			}
			continue
		}
		if m.tag == tag {
			return m
		}
		p.pending[src] = append(p.pending[src], m)
	}
}

// emit stamps one event and hands it to the sink, mirroring the
// emulator's emit: Seq is per-rank (the real machine has no
// deterministic global order to offer), timestamps are wall-clock
// microseconds since the run started. The streams use the same
// sim.Event schema and message-id scheme as the emulator, so every
// exporter in internal/trace consumes them unchanged — only the
// meaning of Time differs (never virtual time; the two units never
// appear in one capture).
func (p *realProc) emit(ev sim.Event) {
	p.seq++
	ev.Seq = p.seq
	ev.Rank = p.rank
	if ev.Phase == "" {
		ev.Phase = p.phase
	}
	p.m.cfg.Sink.Emit(ev)
}
