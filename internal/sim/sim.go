// Package sim emulates a coarse-grained distributed memory parallel
// machine of the kind the paper targets (Section 2): P processors with
// private local memories connected by an interconnection network that
// behaves like a virtual crossbar.
//
// Each logical processor runs as a goroutine in SPMD style and owns a
// virtual clock measured in microseconds. The clock advances according
// to the paper's two-level cost model:
//
//   - a local elementary operation costs Delta,
//   - sending an m-word message costs Tau + Mu*m, independent of the
//     distance between sender and receiver and of link congestion.
//
// Data really moves between processors (over channels guarded by
// mailboxes), so algorithms built on the emulator are exercised
// end-to-end; the virtual clocks merely attribute a reproducible cost to
// every step. The maximum clock over all processors at the end of a run
// plays the role of the wall-clock time the paper measures on the CM-5.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// Sched selects how the machine schedules its logical processors on
// the host. The two modes produce identical virtual results (clocks,
// stats, phase breakdowns, payload routing); they differ only in host
// cost and in how deadlocks are detected.
type Sched int

const (
	// SchedGoroutine runs the P processor bodies as freely scheduled
	// goroutines: within-machine host parallelism, mailboxes guarded by
	// mutex/condvar, and a polling monitor that detects deadlock
	// heuristically (a stable all-blocked picture across a 2 ms scan).
	SchedGoroutine Sched = iota
	// SchedCooperative runs the bodies as coroutine-style goroutines
	// scheduled one at a time in virtual-clock order: the runnable
	// processor with the smallest clock runs until it blocks in Recv.
	// Exactly one body runs at any moment, so mailbox access needs no
	// locks, and the scheduler sees every blocked receive, which makes
	// deadlock an exact structural condition (all live processors
	// blocked with no matching message anywhere) detected instantly
	// with a full wait-for diagnostic — no ticker, no trip latency, no
	// host-load sensitivity. Preferred when machines are already run in
	// parallel across experiment points (the sweep engine's default).
	SchedCooperative
)

func (s Sched) String() string {
	switch s {
	case SchedGoroutine:
		return "goroutine"
	case SchedCooperative:
		return "coop"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}

// ParseSched maps the packbench -sched flag values to a Sched.
func ParseSched(s string) (Sched, error) {
	switch s {
	case "goroutine":
		return SchedGoroutine, nil
	case "coop", "cooperative":
		return SchedCooperative, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want goroutine or coop)", s)
}

// Config describes a machine to build.
type Config struct {
	// Procs is the number of logical processors, P >= 1.
	Procs int
	// Sched selects the execution mode; the zero value is
	// SchedGoroutine, the historical concurrent mode.
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
	// Record, when set, keeps a per-processor timeline of virtual-time
	// spans (phase, computation/communication, start, end) retrievable
	// via Machine.Spans after a run. Contiguous spans of the same kind
	// are merged, so the overhead is modest; leave it off for large
	// parameter sweeps.
	Record bool
	// Trace, when set, records structured events (sends, deliveries,
	// receives, wake-ups, phase transitions, charge batches — see
	// trace.go) into per-processor buffers retrievable via
	// Machine.Events after a run. Independent of Record; the exporters
	// in internal/trace want both.
	Trace bool
	// Sink, when non-nil, additionally streams every trace event to the
	// sink as it is produced (without requiring Trace's buffering). See
	// EventSink for the concurrency contract.
	Sink EventSink
	// Metrics, when non-nil, attaches the backend-agnostic telemetry
	// registry (internal/metrics): the instrumented layers above the
	// endpoint (pack, comm) record counters and latency histograms into
	// it. The emulator itself records nothing — virtual-time accounting
	// already lives in Stats/Spans/Events — so attaching a registry
	// never perturbs virtual results. Nil (the default) disables
	// telemetry at one-branch cost in the instrumented paths.
	Metrics *metrics.Registry
	// Faults, when non-nil, enables the deterministic fault-injection
	// subsystem (fault.go): TrySend delivery attempts are subjected to
	// a seeded schedule of drops, duplications, reorderings, delays,
	// and sender stalls, and Machine.FaultReport summarises the run.
	// New validates the plan and stores a normalized private copy. Nil
	// leaves every communication primitive exact.
	Faults *FaultConfig
	// Flight, when non-nil, keeps the most recent events of every rank
	// in fixed-size ring buffers (flight.go) — a bounded post-mortem
	// window that stays affordable on long runs where full tracing is
	// not. On a failed run, snapshot it and hand the rings to
	// internal/trace's flight dumper. Independent of Trace and Sink;
	// any combination works.
	Flight *FlightRecorder
}

// Span is one recorded interval of a processor timeline: [Start, End)
// in virtual microseconds, attributed to a phase, either computation
// or communication (sending, or waiting for a message).
type Span struct {
	Phase string
	Comm  bool
	Start float64
	End   float64
}

// message is an in-flight point-to-point message.
type message struct {
	src     int
	tag     int
	payload any
	words   int
	arrival float64 // virtual time at which the message is available
	id      uint64  // trace message id; zero when tracing is off
}

// mailbox is an unbounded, tag-matched receive queue. Sends never
// block (eager protocol), so a correct SPMD exchange pattern can never
// deadlock regardless of send/receive ordering; a receive that no
// matching send will ever satisfy still can, which the machine's
// deadlock monitor (watch) detects.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// removeAt deletes and returns queue[i], compacting the queue and
// zeroing the vacated tail slot so the removed message's payload does
// not stay reachable through the slice's spare capacity (a payload
// retention leak across long runs otherwise). Caller must hold b.mu in
// goroutine mode; in cooperative mode access is already serialized.
func (b *mailbox) removeAt(i int) message {
	m := b.queue[i]
	last := len(b.queue) - 1
	copy(b.queue[i:], b.queue[i+1:])
	b.queue[last] = message{}
	b.queue = b.queue[:last]
	return m
}

// ErrDeadlock is the sentinel every deadlock-shaped run error matches
// via errors.Is: the goroutine-mode per-rank unwind, the cooperative
// scheduler's machine-level wait-for diagnostic, and the real
// backend's watchdog abort all identify as ErrDeadlock. Callers (the
// bench harness's flight-recorder dump trigger, tests) should test
// errors.Is(err, sim.ErrDeadlock) rather than matching message text.
var ErrDeadlock = errors.New("sim: deadlock")

// deadlockError is the panic value raised in a processor that is
// unblocked because the machine is wedged (the cooperative scheduler
// proved it, or the goroutine-mode monitor tripped). Run recognizes it
// so induced deadlock diagnostics never mask a root-cause panic.
type deadlockError struct {
	rank, src, tag int
}

func (e deadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: processor %d waiting for a message from %d with tag %d that can never arrive", e.rank, e.src, e.tag)
}

// Is makes errors.Is(err, ErrDeadlock) hold for per-rank unwinds.
func (e deadlockError) Is(target error) bool { return target == ErrDeadlock }

// take removes and returns the first message matching (src, tag),
// blocking until one arrives. Messages from a given source with a given
// tag are delivered in send order. If the machine's deadlock monitor
// trips while this processor is blocked, take panics with a diagnostic
// (recovered by Run into an error).
func (b *mailbox) take(w *watch, rank, src, tag int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if m.src == src && m.tag == tag {
				return b.removeAt(i)
			}
		}
		w.register(rank, src, tag)
		if w.dead.Load() {
			w.unregister(rank)
			panic(deadlockError{rank: rank, src: src, tag: tag})
		}
		b.cond.Wait()
		w.unregister(rank)
		if w.dead.Load() {
			panic(deadlockError{rank: rank, src: src, tag: tag})
		}
	}
}

// matches reports whether the queue holds a message for (src, tag).
// Caller must hold b.mu.
func (b *mailbox) matchesLocked(src, tag int) bool {
	for _, m := range b.queue {
		if m.src == src && m.tag == tag {
			return true
		}
	}
	return false
}

// waitInfo records what a blocked processor is waiting for.
type waitInfo struct {
	src, tag int
}

// watch is the machine's deadlock monitor. Blocked receivers register
// what they wait for; a background goroutine (one per Run) checks
// periodically whether every still-running processor is blocked with
// no matching message anywhere — the definition of a wedged machine —
// and if the picture is stable across the scan, trips: sets the dead
// flag and wakes every waiter, which then panic with a diagnostic
// instead of hanging the test suite.
type watch struct {
	mu       sync.Mutex
	waiting  map[int]waitInfo
	finished int
	epoch    uint64
	total    int
	boxes    []*mailbox
	dead     atomic.Bool
	stop     chan struct{}
}

func newWatch(total int, boxes []*mailbox) *watch {
	return &watch{waiting: make(map[int]waitInfo), total: total, boxes: boxes, stop: make(chan struct{})}
}

func (w *watch) register(rank, src, tag int) {
	w.mu.Lock()
	w.waiting[rank] = waitInfo{src: src, tag: tag}
	w.epoch++
	w.mu.Unlock()
}

func (w *watch) unregister(rank int) {
	w.mu.Lock()
	delete(w.waiting, rank)
	w.epoch++
	w.mu.Unlock()
}

func (w *watch) finish() {
	w.mu.Lock()
	w.finished++
	w.epoch++
	w.mu.Unlock()
}

// check performs one deadlock scan; it returns true if it tripped.
func (w *watch) check() bool {
	w.mu.Lock()
	if len(w.waiting)+w.finished != w.total || len(w.waiting) == 0 {
		w.mu.Unlock()
		return false
	}
	epoch := w.epoch
	snapshot := make(map[int]waitInfo, len(w.waiting))
	for r, i := range w.waiting {
		snapshot[r] = i
	}
	w.mu.Unlock()

	// A blocked receiver with a matching queued message is merely slow
	// to wake (the broadcast already happened), not deadlocked.
	for rank, info := range snapshot {
		b := w.boxes[rank]
		b.mu.Lock()
		ok := b.matchesLocked(info.src, info.tag)
		b.mu.Unlock()
		if ok {
			return false
		}
	}

	// Confirm nothing moved while we scanned.
	w.mu.Lock()
	stable := w.epoch == epoch
	w.mu.Unlock()
	if !stable {
		return false
	}

	w.dead.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	return true
}

// monitor polls until stopped or tripped.
func (w *watch) monitor() {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			if w.check() {
				return
			}
		}
	}
}

func (b *mailbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
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
	boxes []*mailbox

	// running guards against concurrent Run calls on one machine (the
	// mailboxes are shared between runs). Distinct Machine values share
	// no state, so any number of machines may run concurrently — the
	// parallel sweep harness relies on that.
	running atomic.Bool

	// seq is the machine-global event sequence counter of the
	// cooperative scheduler (only the running processor touches it, and
	// handoffs order every access); reset at the start of each Run.
	seq uint64

	mu          sync.Mutex
	stats       []Stats
	spans       [][]Span
	events      [][]Event
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
	if cfg.Flight != nil && cfg.Flight.Procs() < cfg.Procs {
		return nil, fmt.Errorf("sim: flight recorder built for %d ranks cannot cover P=%d", cfg.Flight.Procs(), cfg.Procs)
	}
	m := &Machine{cfg: cfg, boxes: make([]*mailbox, cfg.Procs)}
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
	}
	return m, nil
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
// panicked or if any message was left undelivered (which would indicate
// a mismatched communication pattern).
//
// Run may be called repeatedly (each call starts all clocks from
// zero) but not concurrently: the machine's mailboxes are shared
// between runs. Concurrent calls are detected and return an error.
// Distinct machines are fully independent and safe to run in parallel.
func (m *Machine) Run(body func(p *Proc)) error {
	if !m.running.CompareAndSwap(false, true) {
		return fmt.Errorf("sim: Machine.Run called concurrently on the same machine")
	}
	defer m.running.Store(false)
	m.seq = 0
	if m.cfg.Sched == SchedCooperative {
		return m.runCoop(body)
	}
	return m.runGoroutine(body)
}

// newProcs builds the per-run processor values, clocks at zero.
func (m *Machine) newProcs() []*Proc {
	procs := make([]*Proc, m.cfg.Procs)
	for i := range procs {
		procs[i] = &Proc{
			rank:  i,
			m:     m,
			box:   m.boxes[i],
			phase: "default",
			stats: Stats{Rank: i, Phases: make(map[string]PhaseStats)},
		}
	}
	return procs
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

// runGoroutine is the concurrent mode: one goroutine per processor,
// locked mailboxes, and the polling deadlock monitor.
func (m *Machine) runGoroutine(body func(p *Proc)) error {
	w := newWatch(m.cfg.Procs, m.boxes)
	go w.monitor()
	defer close(w.stop)
	procs := m.newProcs()
	for _, p := range procs {
		p.w = w
	}
	errs := make([]error, m.cfg.Procs)
	var wg sync.WaitGroup
	wg.Add(m.cfg.Procs)
	for i := range procs {
		go func(p *Proc) {
			defer wg.Done()
			defer w.finish()
			defer func() {
				if r := recover(); r != nil {
					errs[p.rank] = recoverRankErr(p.rank, r)
				}
			}()
			body(p)
			p.flushHeld(-1) // release reorder-held messages before finishing
		}(procs[i])
	}
	wg.Wait()
	return m.finishRun(procs, errs, nil)
}

// finishRun publishes the run's statistics and folds the per-rank
// errors into the run result. Non-deadlock errors are preferred: when a
// processor panics, its peers are typically woken with induced
// "deadlock" panics, and reporting one of those would mask the root
// cause. Remaining errors of the winning class are aggregated with
// errors.Join; diag, when non-nil, is the cooperative scheduler's
// machine-level wait-for diagnostic and stands in for the per-rank
// deadlock unwind errors.
func (m *Machine) finishRun(procs []*Proc, errs []error, diag error) error {
	m.mu.Lock()
	m.stats = make([]Stats, m.cfg.Procs)
	m.spans = make([][]Span, m.cfg.Procs)
	m.events = make([][]Event, m.cfg.Procs)
	m.faultReport = nil
	if m.cfg.Faults != nil {
		// Trailing duplicates a receiver had no reason to consume are an
		// expected end state of a faulted run, not a protocol error:
		// count them as residual (attributed to the destination rank)
		// and drain the mailboxes so a later Run starts clean.
		for i, b := range m.boxes {
			if n := len(b.queue); n > 0 {
				procs[i].faults.Residual += int64(n)
				b.queue = nil
			}
		}
		m.faultReport = buildFaultReport(m.cfg.Faults.Seed, procs)
	}
	for i, p := range procs {
		if p.tracing() {
			p.flushCharge()
		}
		p.stats.Clock = p.clock
		p.stats.Faults = p.faults
		m.stats[i] = p.stats
		m.spans[i] = p.spans
		m.events[i] = p.events
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
	if m.cfg.Faults != nil {
		return nil // leftovers were folded into the report's residual
	}
	for i, b := range m.boxes {
		if n := b.pending(); n != 0 {
			return fmt.Errorf("sim: processor %d finished with %d undelivered messages", i, n)
		}
	}
	return nil
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

// Spans returns the recorded per-processor timelines of the most
// recent Run (nil unless Config.Record was set), ordered by rank. The
// rows are deep copies: mutating them does not touch the machine's
// snapshot.
func (m *Machine) Spans() [][]Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]Span, len(m.spans))
	for i, row := range m.spans {
		out[i] = append([]Span(nil), row...)
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
	w     *watch     // goroutine mode only
	cs    *coopSched // cooperative mode only
	box   *mailbox
	clock float64
	phase string
	stats Stats
	spans []Span

	// Event-tracing state (trace.go); all zero when tracing is off.
	events      []Event
	seq         uint64 // per-rank event counter (goroutine mode)
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

// record appends (or extends) a timeline span ending at the current
// clock.
func (p *Proc) record(comm bool, start float64) {
	if !p.m.cfg.Record || p.clock == start {
		return
	}
	if n := len(p.spans); n > 0 {
		last := &p.spans[n-1]
		if last.Phase == p.phase && last.Comm == comm && last.End == start {
			last.End = p.clock
			return
		}
	}
	p.spans = append(p.spans, Span{Phase: p.phase, Comm: comm, Start: start, End: p.clock})
}

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
	start := p.clock
	p.clock += t
	p.stats.Comp += t
	ph := p.stats.Phases[p.phase]
	ph.Comp += t
	p.stats.Phases[p.phase] = ph
	p.record(false, start)
}

func (p *Proc) addComm(t float64) {
	start := p.clock
	p.clock += t
	p.stats.Comm += t
	ph := p.stats.Phases[p.phase]
	ph.Comm += t
	p.stats.Phases[p.phase] = ph
	p.record(true, start)
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

// deliver appends a message to dst's mailbox. In cooperative mode
// exactly one processor runs at a time (handoffs through the scheduler
// establish the ordering), so the queue is appended to directly; in
// goroutine mode the locked put wakes any blocked receiver.
func (p *Proc) deliver(dst int, m message) {
	if p.tracing() {
		p.flushCharge()
		p.emit(Event{Kind: EvDeliver, Peer: dst, Tag: m.tag, Words: m.words, Time: m.arrival, MsgID: m.id})
	}
	if p.cs != nil {
		b := p.m.boxes[dst]
		b.queue = append(b.queue, m)
		p.cs.noteDeliver(dst, m.src, m.tag)
		return
	}
	p.m.boxes[dst].put(m)
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
	var msg message
	if p.cs != nil {
		msg = p.box.takeCoop(p.cs, p.rank, src, tag)
	} else {
		msg = p.box.take(p.w, p.rank, src, tag)
	}
	if msg.arrival > p.clock {
		p.addComm(msg.arrival - p.clock)
	}
	if traced {
		p.emit(Event{Kind: EvRecvWake, Peer: src, Tag: tag, Words: msg.words, Time: p.clock, Dur: p.clock - blockClock, MsgID: msg.id})
	}
	return msg.payload, msg.words
}

// SendInts is Send for the common []int payload, charging one machine
// word per element.
func (p *Proc) SendInts(dst, tag int, v []int) {
	p.Send(dst, tag, v, len(v))
}

// RecvInts is Recv for []int payloads.
func (p *Proc) RecvInts(src, tag int) []int {
	payload, _ := p.Recv(src, tag)
	if payload == nil {
		return nil
	}
	return payload.([]int)
}
