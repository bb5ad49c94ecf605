package transport

// This file is the real shared-memory parallel backend (BackendReal):
// the P processor bodies of an SPMD run execute as host goroutines —
// locked to OS threads when the host has at least P cores, which is as
// close to core pinning as the Go runtime allows — and exchange
// messages through unbounded lock-free SPSC queues, one per ordered
// processor pair (spsc.go). Nothing is virtual: Charge only counts,
// Clock reads the wall, and Machine.Elapsed is the measured run time
// the realworld speedup curves are built from.
//
// Message semantics mirror the emulator exactly — eager non-blocking
// sends, FIFO per (source, destination, tag) stream, tag-matched
// receives with out-of-tag-order messages parked at the receiver — so
// any algorithm written against transport.Endpoint produces
// byte-identical results on both backends (pinned by the cross-backend
// conformance suite). Observability carries over too: with
// RealConfig.Sink the backend emits the same structured sim.Event
// stream — wall-clock microsecond timestamps instead of virtual time,
// same message-id scheme — and with RealConfig.Metrics it records the
// telemetry families of realmeters.go. What does NOT carry over is the
// model side: virtual clocks, cost charging, and fault injection are
// emulator devices (they need an omniscient network), so realProc is
// a plain Endpoint, not a FaultEndpoint, and the reliable transport's
// fault path never engages.
//
// Deadlock handling is heuristic, unlike the emulator's structural
// proof: a watchdog samples a global progress counter, and when every
// live processor has been parked in Recv with no delivery for several
// consecutive scans, the run is declared wedged and every waiter is
// unwound with a diagnostic instead of hanging the process. A panic in
// one body likewise unwinds the peers through the same abort channel.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packunpack/internal/metrics"
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
	// NoPin disables locking processor goroutines to OS threads even
	// when the host has enough cores.
	NoPin bool
	// Metrics, when non-nil, attaches the telemetry registry
	// (internal/metrics): the backend records the families documented
	// in realmeters.go (per-link traffic, queue depths, park/wake
	// counts, stash occupancy, per-phase wall spans) and the
	// instrumented layers above the endpoint record theirs. Nil
	// disables all recording at one-branch cost.
	Metrics *metrics.Registry
	// Sink, when non-nil, receives every structured event (sim.Event
	// schema, wall-clock microsecond timestamps) as it is produced —
	// the real-backend counterpart of sim.Config.Sink, and like it the
	// machine's only event output. Ranks call Emit concurrently; the
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

	// Abort/watchdog state, reset per run.
	aborted  chan struct{}
	abortErr atomic.Pointer[realDeadlockError]
	progress atomic.Uint64 // bumped on every put and successful poll
	blocked  atomic.Int64  // processors currently parked in Recv
	finished atomic.Int64  // processors whose body returned
	runStart time.Time

	mu      sync.Mutex
	stats   []sim.Stats
	elapsed time.Duration
}

// realDeadlockError unwinds a processor when the watchdog declares the
// machine wedged (or a peer panicked first).
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

// Is makes errors.Is(err, sim.ErrDeadlock) hold for genuine watchdog
// aborts. Peer-panic unwinds are collateral of another failure, not a
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
	m := &RealMachine{cfg: cfg, queues: make([][]*spscQueue, cfg.Procs)}
	for s := range m.queues {
		m.queues[s] = make([]*spscQueue, cfg.Procs)
		for d := range m.queues[s] {
			m.queues[s][d] = newSpscQueue()
		}
	}
	if cfg.Metrics != nil {
		m.attachQueueMeters(cfg.Metrics)
	}
	return m, nil
}

// Metrics returns the registry configured at construction (nil when
// telemetry is off).
func (m *RealMachine) Metrics() *metrics.Registry { return m.cfg.Metrics }

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
	m.progress.Store(0)
	m.blocked.Store(0)
	m.finished.Store(0)
	pin := !m.cfg.NoPin && n <= runtime.NumCPU()

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
			stats:   sim.Stats{Rank: i, Phases: make(map[string]sim.PhaseStats)},
			tr:      m.cfg.Sink != nil,
		}
		if m.cfg.Metrics != nil {
			procs[i].met = newProcMeters(m.cfg.Metrics, i, n, "default", 0)
		}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	m.runStart = time.Now()
	stopWatch := make(chan struct{})
	go m.watchdog(stopWatch)
	for i := range procs {
		go func(p *realProc) {
			defer wg.Done()
			defer m.finished.Add(1)
			defer func() {
				if r := recover(); r != nil {
					errs[p.rank] = recoverRealErr(p.rank, r)
					m.abort(true)
				}
				p.stats.Clock = p.clockNow()
				if p.met != nil {
					p.met.notePhaseEnd(p.phase, p.stats.Clock)
				}
			}()
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			body(p)
		}(procs[i])
	}
	wg.Wait()
	close(stopWatch)
	elapsed := time.Since(m.runStart)

	m.mu.Lock()
	m.elapsed = elapsed
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

// watchdog declares the machine wedged when every live processor has
// been parked in Recv with zero message traffic across several
// consecutive scans. Heuristic by design: a notify token can be in
// flight during one scan, but not across 50 ms of total stillness.
func (m *RealMachine) watchdog(stop chan struct{}) {
	const scans = 5
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	stable := 0
	var lastProgress uint64
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			prog := m.progress.Load()
			blocked, done := m.blocked.Load(), m.finished.Load()
			if blocked > 0 && blocked+done == int64(m.cfg.Procs) && prog == lastProgress {
				stable++
				if stable >= scans {
					m.abort(false)
					return
				}
			} else {
				stable = 0
			}
			lastProgress = prog
		}
	}
}

// Stats returns the per-processor statistics of the most recent Run
// (deep copies; the real backend fills the counters and wall clocks).
func (m *RealMachine) Stats() []sim.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]sim.Stats, len(m.stats))
	for i, s := range m.stats {
		phases := make(map[string]sim.PhaseStats, len(s.Phases))
		for name, ph := range s.Phases {
			phases[name] = ph
		}
		s.Phases = phases
		out[i] = s
	}
	return out
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

// Elapsed returns the wall-clock duration of the most recent Run.
func (m *RealMachine) Elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.elapsed
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

	// Telemetry state; zero/nil when the machine has none configured,
	// so every hot-path guard below is a single predictable branch.
	tr       bool        // emit trace events (RealConfig.Sink set)
	met      *procMeters // pre-resolved metric handles, nil = off
	seq      uint64      // per-rank event sequence number
	sends    uint64      // per-rank message counter for MsgID
	stashLen int         // current tag-mismatch stash size, all sources
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
	if p.met != nil {
		now := p.clockNow()
		p.met.notePhaseEnd(previous, now)
		p.met.setPhase(p.rank, p.m.cfg.Procs, name)
	}
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
	if p.met != nil {
		p.met.noteSend(p.rank, dst, words)
	}
	var id uint64
	if p.tr {
		p.sends++
		id = sim.MakeMsgID(p.rank, p.sends)
	}
	p.m.queues[p.rank][dst].put(rmsg{tag: tag, payload: payload, words: words, id: id})
	p.m.progress.Add(1)
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
	p.m.progress.Add(1)
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
	msg, parks := p.recvMatch(src, tag)
	if p.met != nil {
		p.met.recvs.AddShard(p.rank, 1)
		if parks > 0 {
			p.met.parks.AddShard(p.rank, parks)
		}
	}
	if p.tr {
		now := p.clockNow()
		p.emit(sim.Event{Kind: sim.EvRecvWake, Peer: src, Tag: tag, Words: msg.words, Time: now, Dur: now - t0, MsgID: msg.id})
	}
	return msg.payload, msg.words
}

// recvMatch finds the (src, tag) message — stash first, then the SPSC
// queue, parking on its notify channel while empty — and reports how
// many times it parked.
func (p *realProc) recvMatch(src, tag int) (rmsg, int64) {
	stash := p.pending[src]
	for i, m := range stash {
		if m.tag == tag {
			p.pending[src] = append(stash[:i], stash[i+1:]...)
			p.stashLen--
			return m, 0
		}
	}
	q := p.in[src]
	var parks int64
	for {
		m, ok := q.poll()
		if !ok {
			parks++
			p.m.blocked.Add(1)
			select {
			case <-q.notify:
			case <-p.m.aborted:
				p.m.blocked.Add(-1)
				e := p.m.abortErr.Load()
				panic(&realDeadlockError{rank: p.rank, src: src, tag: tag, peerPanic: e != nil && e.peerPanic})
			}
			p.m.blocked.Add(-1)
			continue
		}
		p.m.progress.Add(1)
		if m.tag == tag {
			return m, parks
		}
		p.pending[src] = append(p.pending[src], m)
		p.stashLen++
		if p.met != nil {
			p.met.stashHW.SetMax(int64(p.stashLen))
		}
	}
}

// Metrics returns the machine's telemetry registry, nil when off.
func (p *realProc) Metrics() *metrics.Registry { return p.m.cfg.Metrics }
