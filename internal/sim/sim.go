// Package sim emulates a coarse-grained distributed memory parallel
// machine of the kind the paper targets (Section 2): P processors with
// private local memories connected by an interconnection network that
// behaves like a virtual crossbar.
//
// Each logical processor runs the SPMD body on its own goroutine and
// owns a virtual clock measured in microseconds. The clock advances
// according to the paper's two-level cost model:
//
//   - a local elementary operation costs Delta,
//   - sending an m-word message costs Tau + Mu*m, independent of the
//     distance between sender and receiver and of link congestion.
//
// Data really moves between processors (through per-processor
// mailboxes), so algorithms built on the emulator are exercised
// end-to-end; the virtual clocks merely attribute a reproducible cost to
// every step. The processors run one at a time under a deterministic
// cooperative scheduler (coop.go). The maximum clock over all
// processors at the end of a run plays the role of the wall-clock time
// the paper measures on the CM-5.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"packunpack/internal/metrics"
)

// Params holds the two-level machine model constants, all in
// microseconds. Tau is the communication start-up cost, Mu the
// per-word transfer time (the inverse of the data-transfer rate), and
// Delta the cost of one local elementary operation.
type Params struct {
	Tau   float64
	Mu    float64
	Delta float64
}

// CM5Params returns machine constants flavoured after the 32 MHz
// SPARC-based CM-5 nodes the paper used: an active-message start-up in
// the tens of microseconds, a per-word (4-byte) network cost of about
// half a microsecond, and a local elementary operation (a few
// instructions: load, test, store) around 0.15 µs.
//
// The absolute values only scale the reported times; the scheme
// comparisons in the paper are driven by operation and word counts.
func CM5Params() Params {
	return Params{Tau: 86, Mu: 0.5, Delta: 0.15}
}

// Sched was the selector between two scheduling modes.
//
// Deprecated: the cooperative scheduler (coop.go) is the emulator's
// only mode, and Config.Sched is ignored.
type Sched int

// SchedCooperative names the cooperative scheduler.
//
// Deprecated: it is the only mode; setting it changes nothing.
const SchedCooperative Sched = 1

// Config describes a machine to build.
type Config struct {
	// Procs is the number of logical processors, P >= 1.
	Procs int
	// Sched is ignored.
	//
	// Deprecated: every machine runs the cooperative scheduler.
	Sched Sched
	// Params are the cost-model constants. Zero values are allowed
	// (they produce a free machine, useful in unit tests).
	Params Params
	// SelfSendFree, when set, makes messages a processor sends to
	// itself cost nothing. The paper's implementation did NOT shortcut
	// self messages into local copies ("local copy was not performed
	// when a processor needed to send a message to itself"), so the
	// default (false) charges self messages like any other; the flag
	// exists for ablation.
	SelfSendFree bool
	// Sink, when non-nil, receives every structured trace event (sends,
	// deliveries, receives, wake-ups, phase transitions, charge batches
	// — see trace.go) as it is produced. It is the machine's only event
	// output: retention, streaming, aggregation and the flight recorder
	// are all sinks (internal/trace), and trace.Tee fans one stream out
	// to several. A sink built for fewer ranks than Procs (SizedSink) is
	// rejected by New. See EventSink for the concurrency contract.
	Sink EventSink
	// Metrics, when non-nil, attaches the backend-agnostic telemetry
	// registry (internal/metrics): the instrumented layers above the
	// endpoint (pack, comm) record counters and latency histograms into
	// it. The emulator itself records nothing — virtual-time accounting
	// already lives in Stats and the event stream — so attaching a
	// registry never perturbs virtual results. Nil (the default) disables
	// telemetry at one-branch cost in the instrumented paths.
	Metrics *metrics.Registry
	// Faults, when non-nil, enables the deterministic fault-injection
	// subsystem (fault.go): TrySend delivery attempts are subjected to
	// a seeded schedule of drops, duplications, reorderings, delays,
	// and sender stalls, and Machine.FaultReport summarises the run.
	// New validates the plan and stores a normalized private copy. Nil
	// leaves every communication primitive exact.
	Faults *FaultConfig
}

// message is an in-flight point-to-point message.
type message struct {
	src     int
	tag     int
	payload any
	words   int
	arrival float64 // virtual time at which the message is available
	id      uint64  // trace message id; zero without a Sink
}

// mailbox is an unbounded, tag-matched receive queue. Sends never
// block (eager protocol), so a correct SPMD exchange pattern can never
// deadlock regardless of send/receive ordering; a receive that no
// matching send will ever satisfy still can, which the cooperative
// scheduler proves structurally (coop.go). Only the running processor
// touches any mailbox, so none needs a lock.
type mailbox struct {
	queue []message
}

// removeAt deletes and returns queue[i], compacting the queue and
// zeroing the vacated tail slot so the removed message's payload does
// not stay reachable through the slice's spare capacity (a payload
// retention leak across long runs otherwise).
func (b *mailbox) removeAt(i int) message {
	m := b.queue[i]
	last := len(b.queue) - 1
	copy(b.queue[i:], b.queue[i+1:])
	b.queue[last] = message{}
	b.queue = b.queue[:last]
	return m
}

// ErrDeadlock is the sentinel every deadlock-shaped run error matches
// via errors.Is: the cooperative scheduler's machine-level wait-for
// diagnostic and the real backend's watchdog abort both identify as
// ErrDeadlock. Callers (the bench harness's flight-recorder dump
// trigger, tests) should test errors.Is(err, sim.ErrDeadlock) rather
// than matching message text.
var ErrDeadlock = errors.New("sim: deadlock")

// deadlockError is the panic value raised in a processor that is
// unwound because the cooperative scheduler proved the machine wedged.
// Run recognizes it so induced deadlock unwinds never mask a
// root-cause panic.
type deadlockError struct {
	rank, src, tag int
}

func (e deadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: processor %d waiting for a message from %d with tag %d that can never arrive", e.rank, e.src, e.tag)
}

// Is makes errors.Is(err, ErrDeadlock) hold for per-rank unwinds.
func (e deadlockError) Is(target error) bool { return target == ErrDeadlock }

// waitInfo records what a blocked processor is waiting for.
type waitInfo struct {
	src, tag int
}

// PhaseStats is the virtual-time breakdown attributed to one named
// phase of an algorithm.
type PhaseStats struct {
	Comp float64 // local computation time, µs
	Comm float64 // communication time (send occupancy + receive waiting), µs
}

// Stats summarises one processor's activity after a run.
type Stats struct {
	Rank      int
	Clock     float64 // final virtual time, µs
	Comp      float64 // total local computation, µs
	Comm      float64 // total communication, µs
	Ops       int64   // elementary operations charged
	MsgsSent  int64
	WordsSent int64
	Phases    map[string]PhaseStats
	// Faults tallies this processor's injected faults and recovery
	// actions; all zero unless the machine ran with Config.Faults set.
	Faults FaultCounters
}

// Machine is a collection of logical processors sharing a virtual
// crossbar network.
type Machine struct {
	cfg   Config
	boxes []mailbox

	// running guards against concurrent Run calls on one machine (the
	// mailboxes are shared between runs). Distinct Machine values share
	// no state, so any number of machines may run concurrently — the
	// parallel sweep harness relies on that.
	running atomic.Bool

	// seq is the machine-global event sequence counter (only the
	// running processor touches it, and scheduler handoffs order every
	// access); reset at the start of each Run.
	seq uint64

	mu          sync.Mutex
	stats       []Stats
	faultReport *FaultReport
}

// New builds a machine with cfg.Procs processors.
func New(cfg Config) (*Machine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("sim: Procs must be >= 1, got %d", cfg.Procs)
	}
	if cfg.Params.Tau < 0 || cfg.Params.Mu < 0 || cfg.Params.Delta < 0 {
		return nil, fmt.Errorf("sim: negative cost parameters %+v", cfg.Params)
	}
	faults, err := normalizeFaults(cfg.Faults, cfg.Params)
	if err != nil {
		return nil, err
	}
	cfg.Faults = faults
	if s, ok := cfg.Sink.(SizedSink); ok && s.Procs() < cfg.Procs {
		return nil, fmt.Errorf("sim: event sink built for %d ranks cannot cover P=%d", s.Procs(), cfg.Procs)
	}
	return &Machine{cfg: cfg, boxes: make([]mailbox, cfg.Procs)}, nil
}

// MustNew is New for configurations known to be valid (tests, examples).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Procs returns the number of processors.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Params returns the machine cost constants.
func (m *Machine) Params() Params { return m.cfg.Params }

// Run executes body once per processor, SPMD style, and blocks until
// every processor finishes. It returns an error if any processor
// panicked, if the machine deadlocked, or if any message was left
// undelivered (which would indicate a mismatched communication
// pattern).
//
// Run may be called repeatedly (each call starts all clocks from zero
// and empty mailboxes, whatever the previous call returned) but not
// concurrently: the machine's mailboxes are shared between runs.
// Concurrent calls are detected and return an error. Distinct machines
// are fully independent and safe to run in parallel.
func (m *Machine) Run(body func(p *Proc)) error {
	if !m.running.CompareAndSwap(false, true) {
		return fmt.Errorf("sim: Machine.Run called concurrently on the same machine")
	}
	defer m.running.Store(false)
	m.seq = 0
	return m.runCoop(body)
}

// recoverRankErr converts a recovered panic value into a per-rank
// error, preserving deadlockError identity so finishRun can tell
// induced deadlock unwinding apart from root-cause failures.
func recoverRankErr(rank int, r any) error {
	if de, ok := r.(deadlockError); ok {
		return de
	}
	if fe, ok := r.(*FaultBudgetError); ok {
		return fe
	}
	return fmt.Errorf("sim: processor %d panicked: %v", rank, r)
}

// finishRun publishes the run's statistics, empties the mailboxes and
// folds the per-rank errors into the run result. Non-deadlock errors
// are preferred: when a processor panics, its peers typically wedge
// waiting for it, and reporting the induced deadlock would mask the
// root cause. Remaining errors of the winning class are aggregated
// with errors.Join; diag, when non-nil, is the scheduler's
// machine-level wait-for diagnostic and stands in for the per-rank
// deadlock unwind errors.
func (m *Machine) finishRun(procs []*Proc, errs []error, diag error) error {
	// Every exit path leaves the mailboxes empty, so a later Run never
	// receives this one's leftovers. Under a fault plan, trailing
	// duplicates a receiver had no reason to consume are an expected
	// end state rather than a protocol error: they count as residual,
	// attributed to the destination rank.
	var undelivered error
	for i := range m.boxes {
		b := &m.boxes[i]
		n := len(b.queue)
		if n == 0 {
			continue
		}
		if m.cfg.Faults != nil {
			procs[i].faults.Residual += int64(n)
		} else if undelivered == nil {
			undelivered = fmt.Errorf("sim: processor %d finished with %d undelivered messages", i, n)
		}
		b.queue = nil
	}

	m.mu.Lock()
	m.stats = make([]Stats, m.cfg.Procs)
	m.faultReport = nil
	if m.cfg.Faults != nil {
		m.faultReport = buildFaultReport(m.cfg.Faults.Seed, procs)
	}
	for i, p := range procs {
		p.flushCharge()
		p.stats.Clock = p.clock
		p.stats.Faults = p.faults
		m.stats[i] = p.stats
	}
	m.mu.Unlock()

	var primary, deadlocks []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var de deadlockError
		if errors.As(err, &de) {
			deadlocks = append(deadlocks, err)
		} else {
			primary = append(primary, err)
		}
	}
	switch {
	case len(primary) > 0:
		return errors.Join(primary...)
	case diag != nil:
		return diag
	case len(deadlocks) > 0:
		return errors.Join(deadlocks...)
	}
	return undelivered
}

// Stats returns the per-processor statistics of the most recent Run,
// ordered by rank. The result is a deep copy (including the Phases
// maps): callers may mutate it, and a later Run cannot corrupt an
// earlier snapshot.
func (m *Machine) Stats() []Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Stats, len(m.stats))
	for i, s := range m.stats {
		phases := make(map[string]PhaseStats, len(s.Phases))
		for name, ph := range s.Phases {
			phases[name] = ph
		}
		s.Phases = phases
		out[i] = s
	}
	return out
}

// MaxClock returns the largest final virtual clock of the most recent
// Run in microseconds — the emulator's analogue of elapsed time.
func (m *Machine) MaxClock() float64 {
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

// MaxPhase returns the largest per-processor total (Comp+Comm) spent in
// the named phase, and the largest Comp and Comm parts individually.
// Taking per-component maxima mirrors how the paper reports the slowest
// processor for each measured stage.
func (m *Machine) MaxPhase(name string) (total, comp, comm float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.stats {
		ph := s.Phases[name]
		if t := ph.Comp + ph.Comm; t > total {
			total = t
		}
		if ph.Comp > comp {
			comp = ph.Comp
		}
		if ph.Comm > comm {
			comm = ph.Comm
		}
	}
	return total, comp, comm
}

// PhaseNames returns the sorted union of phase names seen in the most
// recent Run.
func (m *Machine) PhaseNames() []string {
	m.mu.Lock()
	seen := map[string]bool{}
	for _, s := range m.stats {
		for name := range s.Phases {
			seen[name] = true
		}
	}
	m.mu.Unlock()
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Proc is one logical processor inside a Run. It is only valid inside
// the body function passed to Run and must not be shared between
// goroutines.
type Proc struct {
	rank  int
	m     *Machine
	cs    *coopSched
	box   *mailbox
	clock float64
	phase string
	stats Stats

	// Event-tracing state (trace.go); all zero without a Sink.
	sends       uint64 // per-rank message counter for MsgID
	chargeOpen  bool   // a charge batch is pending
	chargeStart float64
	chargeEnd   float64
	chargeOps   int64

	// Fault-injection state (fault.go); all zero when faults are off.
	faultSeq    uint64 // per-rank delivery attempt counter
	faults      FaultCounters
	phaseFaults map[string]FaultCounters
	held        []heldMsg // reorder-faulted messages awaiting overtake
	commState   any       // opaque slot for the reliable transport (CommState)
}

// Metrics returns the telemetry registry attached via Config.Metrics,
// nil when telemetry is off (the instrumented layers' nil-registry
// fast path then short-circuits every recording).
func (p *Proc) Metrics() *metrics.Registry { return p.m.cfg.Metrics }

// Rank returns this processor's id in [0, NProcs).
func (p *Proc) Rank() int { return p.rank }

// NProcs returns the machine size P.
func (p *Proc) NProcs() int { return p.m.cfg.Procs }

// Params returns the machine cost constants.
func (p *Proc) Params() Params { return p.m.cfg.Params }

// Clock returns the current virtual time in microseconds.
func (p *Proc) Clock() float64 { return p.clock }

// SetPhase switches cost attribution to the named phase and returns the
// previous phase name, so callers can restore it:
//
//	defer p.SetPhase(p.SetPhase("ranking"))
func (p *Proc) SetPhase(name string) (previous string) {
	previous = p.phase
	if name != previous && p.tracing() {
		p.flushCharge() // the pending batch belongs to the old phase
		p.phase = name
		p.emit(Event{Kind: EvPhase, Time: p.clock, Phase: name})
		return previous
	}
	p.phase = name
	return previous
}

func (p *Proc) addComp(t float64) {
	p.clock += t
	p.stats.Comp += t
	ph := p.stats.Phases[p.phase]
	ph.Comp += t
	p.stats.Phases[p.phase] = ph
}

func (p *Proc) addComm(t float64) {
	p.clock += t
	p.stats.Comm += t
	ph := p.stats.Phases[p.phase]
	ph.Comm += t
	p.stats.Phases[p.phase] = ph
}

// Charge accounts for ops local elementary operations (cost ops*Delta).
// Algorithms call it wherever the paper's model counts local work: one
// op per element scanned, per record field written, per message word
// composed or decomposed, and so on.
func (p *Proc) Charge(ops int) {
	if ops <= 0 {
		return
	}
	p.stats.Ops += int64(ops)
	start := p.clock
	p.addComp(float64(ops) * p.m.cfg.Params.Delta)
	if p.tracing() {
		p.noteCharge(start, int64(ops))
	}
}

// Send transmits payload (words machine words long) to processor dst
// with the given tag. It never blocks. The sender is charged the full
// Tau + Mu*words occupancy, and the message becomes available to the
// receiver at the sender's clock after the send completes.
func (p *Proc) Send(dst, tag int, payload any, words int) {
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("sim: Send to invalid rank %d (P=%d)", dst, p.m.cfg.Procs))
	}
	if words < 0 {
		panic("sim: Send with negative word count")
	}
	cost := p.m.cfg.Params.Tau + p.m.cfg.Params.Mu*float64(words)
	if dst == p.rank && p.m.cfg.SelfSendFree {
		cost = 0
	}
	p.addComm(cost)
	p.stats.MsgsSent++
	p.stats.WordsSent += int64(words)
	var id uint64
	if p.tracing() {
		p.flushCharge()
		p.sends++
		id = msgID(p.rank, p.sends)
		p.emit(Event{Kind: EvSend, Peer: dst, Tag: tag, Words: words, Time: p.clock, Dur: cost, MsgID: id})
	}
	p.deliver(dst, message{src: p.rank, tag: tag, payload: payload, words: words, arrival: p.clock, id: id})
}

// deliver appends a message to dst's mailbox and lets the scheduler
// wake dst if the message satisfies its pending receive. Exactly one
// processor runs at a time (handoffs through the scheduler establish
// the ordering), so the queue is appended to directly.
func (p *Proc) deliver(dst int, m message) {
	if p.tracing() {
		p.flushCharge()
		p.emit(Event{Kind: EvDeliver, Peer: dst, Tag: m.tag, Words: m.words, Time: m.arrival, MsgID: m.id})
	}
	b := &p.m.boxes[dst]
	b.queue = append(b.queue, m)
	p.cs.noteDeliver(dst, m.src, m.tag)
}

// SendFree transmits a zero-cost control message: it charges nothing,
// counts nothing, and arrives at the sender's current clock. It exists
// for modelling out-of-band knowledge in ablation modes (see
// comm.A2AOptions) and must not be used on timed algorithm paths.
func (p *Proc) SendFree(dst, tag int, payload any) {
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("sim: SendFree to invalid rank %d (P=%d)", dst, p.m.cfg.Procs))
	}
	var id uint64
	if p.tracing() {
		p.sends++
		id = msgID(p.rank, p.sends)
	}
	p.deliver(dst, message{src: p.rank, tag: tag, payload: payload, arrival: p.clock, id: id})
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload and word count. The receiver's clock advances to
// the message arrival time if it is still earlier; the waiting time is
// attributed to communication.
func (p *Proc) Recv(src, tag int) (payload any, words int) {
	if src < 0 || src >= p.m.cfg.Procs {
		panic(fmt.Sprintf("sim: Recv from invalid rank %d (P=%d)", src, p.m.cfg.Procs))
	}
	if p.m.cfg.Faults != nil {
		// About to (possibly) block: release reorder-held messages so a
		// peer waiting on one of them can make progress (flushHeld).
		p.flushHeld(-1)
	}
	traced := p.tracing()
	blockClock := p.clock
	if traced {
		p.flushCharge()
		p.emit(Event{Kind: EvRecvBlock, Peer: src, Tag: tag, Time: p.clock})
	}
	msg := p.box.take(p.cs, p.rank, src, tag)
	if msg.arrival > p.clock {
		p.addComm(msg.arrival - p.clock)
	}
	if traced {
		p.emit(Event{Kind: EvRecvWake, Peer: src, Tag: tag, Words: msg.words, Time: p.clock, Dur: p.clock - blockClock, MsgID: msg.id})
	}
	return msg.payload, msg.words
}
