package sim

// This file is the deterministic fault-injection layer of the emulator
// (Config.Faults). The paper assumes a perfectly reliable CM-5 network;
// to exercise the robustness of the communication layer built on top,
// the machine can instead be configured to misbehave in the four
// classic ways — dropping, duplicating, reordering, and delaying
// messages — plus transient processor stalls, all under a seeded
// schedule.
//
// Determinism is the design constraint everything here bends to. Fault
// decisions are pure functions of (seed, sender rank, the sender's
// running attempt counter): no host randomness, no wall clocks, no
// scheduler state. A processor's operation sequence fixes its attempt
// counter, so the same seed fires every fault at the same virtual
// instant with the same effect, run after run. With Faults nil the
// fault path costs one pointer check and nothing else changes — the
// perf-gate contract (virtual metrics bit-for-bit against the
// committed baseline) is preserved.
//
// Faults are injected only at TrySend, the delivery attempt primitive
// the reliable transport in internal/comm is built on. Raw Send/Recv
// and the zero-cost SendFree control channel stay exact: collectives
// that have not opted into the reliable protocol keep their guaranteed
// semantics, and the SkipEmpty probe channel remains the out-of-band
// modelling device it is documented to be.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// FaultConfig is a seeded schedule of network and processor faults.
// All probabilities are per delivery attempt, in [0, 1]. The zero
// value of each knob disables that fault; a nil *FaultConfig disables
// the subsystem entirely.
type FaultConfig struct {
	// Seed selects the schedule. Two runs with the same seed (and the
	// same workload) inject exactly the same faults at the same points;
	// different seeds give independent schedules.
	Seed uint64
	// Drop is the probability a delivery attempt never reaches the
	// destination mailbox (the sender still pays the full wire
	// occupancy, as for a message lost in the network).
	Drop float64
	// Dup is the probability the destination receives a second copy of
	// the message.
	Dup float64
	// Reorder is the probability the message falls behind in the
	// network: it is held back and delivered only after the sender's
	// next surviving delivery to the same destination (which thereby
	// overtakes it), or unovertaken at the sender's next receive or the
	// end of its run. Holding on the sender keeps the fault schedule a
	// pure function of the sender's operation sequence, independent of
	// how much of its queue the receiver has already drained.
	Reorder float64
	// Delay is the probability the message's arrival time slips by an
	// extra, deterministically chosen amount up to DelayMax.
	Delay float64
	// Stall is the probability the sending processor suffers a
	// transient stall (up to StallMax of local time) before the
	// attempt — a GC pause, an interrupt, a slow card.
	Stall float64

	// DelayMax bounds the extra arrival delay in virtual µs. Zero
	// means the default 4*Tau + 64*Mu + 1.
	DelayMax float64
	// StallMax bounds the stall length in virtual µs. Zero means the
	// default 2*Tau + 1.
	StallMax float64
	// RetryTimeout is the virtual time a reliable sender waits for the
	// (modelled) acknowledgement before retrying a delivery attempt.
	// Zero means the default 4*Tau + 64*Mu + 1.
	RetryTimeout float64
	// MaxRetries is the fault budget: how many retries of one message
	// the reliable layer attempts before giving up with a
	// FaultBudgetError. Zero or negative means the default 25.
	MaxRetries int
}

// String renders the configuration compactly (used by the bench
// memoization key and the packbench table headers).
func (f *FaultConfig) String() string {
	if f == nil {
		return "off"
	}
	return fmt.Sprintf("seed=%d drop=%g dup=%g reorder=%g delay=%g stall=%g timeout=%g retries=%d",
		f.Seed, f.Drop, f.Dup, f.Reorder, f.Delay, f.Stall, f.RetryTimeout, f.MaxRetries)
}

// normalizeFaults validates f and returns a private copy with defaults
// filled in (so the machine's plan cannot be mutated through the
// caller's pointer). The defaults scale with the machine constants; the
// +1 terms keep them positive on the zero-cost machines unit tests use.
func normalizeFaults(f *FaultConfig, prm Params) (*FaultConfig, error) {
	if f == nil {
		return nil, nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Drop", f.Drop}, {"Dup", f.Dup}, {"Reorder", f.Reorder},
		{"Delay", f.Delay}, {"Stall", f.Stall},
	} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("sim: fault probability %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if f.DelayMax < 0 || f.StallMax < 0 || f.RetryTimeout < 0 {
		return nil, fmt.Errorf("sim: negative fault durations in %+v", *f)
	}
	cp := *f
	if cp.DelayMax == 0 {
		cp.DelayMax = 4*prm.Tau + 64*prm.Mu + 1
	}
	if cp.StallMax == 0 {
		cp.StallMax = 2*prm.Tau + 1
	}
	if cp.RetryTimeout == 0 {
		cp.RetryTimeout = 4*prm.Tau + 64*prm.Mu + 1
	}
	if cp.MaxRetries <= 0 {
		cp.MaxRetries = 25
	}
	return &cp, nil
}

// ParseFaults parses the packbench -faults flag syntax
//
//	seed[:name=value,...]
//
// e.g. "42:drop=0.01,dup=0.005,reorder=0.01,delay=0.02,stall=0.001".
// Accepted names: drop, dup, reorder, delay, stall (probabilities),
// delaymax, stallmax, timeout (virtual µs), retries (count).
func ParseFaults(s string) (*FaultConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("sim: empty -faults spec")
	}
	head, rates, _ := strings.Cut(s, ":")
	seed, err := strconv.ParseUint(strings.TrimSpace(head), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sim: -faults seed %q: %v", head, err)
	}
	f := &FaultConfig{Seed: seed}
	if strings.TrimSpace(rates) == "" {
		return f, nil
	}
	for _, kv := range strings.Split(rates, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("sim: -faults rate %q: want name=value", kv)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "retries" {
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("sim: -faults retries %q: %v", val, err)
			}
			f.MaxRetries = n
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("sim: -faults rate %q: %v", kv, err)
		}
		switch name {
		case "drop":
			f.Drop = x
		case "dup":
			f.Dup = x
		case "reorder":
			f.Reorder = x
		case "delay":
			f.Delay = x
		case "stall":
			f.Stall = x
		case "delaymax":
			f.DelayMax = x
		case "stallmax":
			f.StallMax = x
		case "timeout":
			f.RetryTimeout = x
		default:
			return nil, fmt.Errorf("sim: -faults unknown rate name %q", name)
		}
	}
	return f, nil
}

// FaultCounters tallies injected faults and the recovery actions the
// reliable transport took, for one processor or aggregated.
type FaultCounters struct {
	// Attempts counts TrySend delivery attempts.
	Attempts int64
	// Injected faults, by kind.
	Drops    int64
	Dups     int64
	Reorders int64
	Delays   int64
	Stalls   int64
	// Recovery actions observed by the reliable transport.
	Retries int64 // timeout-and-resend cycles
	Dedups  int64 // duplicate envelopes discarded by the receiver
	Stashes int64 // out-of-order envelopes parked until their turn
	// Residual is the number of messages (trailing duplicates) left in
	// mailboxes when the run finished; only the aggregate and per-rank
	// report rows carry it.
	Residual int64
}

// Injected returns the total number of injected faults.
func (c FaultCounters) Injected() int64 {
	return c.Drops + c.Dups + c.Reorders + c.Delays + c.Stalls
}

func (c *FaultCounters) add(o FaultCounters) {
	c.Attempts += o.Attempts
	c.Drops += o.Drops
	c.Dups += o.Dups
	c.Reorders += o.Reorders
	c.Delays += o.Delays
	c.Stalls += o.Stalls
	c.Retries += o.Retries
	c.Dedups += o.Dedups
	c.Stashes += o.Stashes
	c.Residual += o.Residual
}

// FaultReport is the structured outcome of a run with fault injection
// on: what was injected, what the transport did about it, and what was
// left over, in total, per rank, and per cost-attribution phase.
type FaultReport struct {
	Seed     uint64
	Total    FaultCounters
	PerRank  []FaultCounters
	PerPhase map[string]FaultCounters
}

// FaultReport returns the fault summary of the most recent Run, or nil
// when the machine runs without fault injection. The result is a deep
// copy.
func (m *Machine) FaultReport() *FaultReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.faultReport == nil {
		return nil
	}
	cp := *m.faultReport
	cp.PerRank = append([]FaultCounters(nil), m.faultReport.PerRank...)
	cp.PerPhase = make(map[string]FaultCounters, len(m.faultReport.PerPhase))
	for k, v := range m.faultReport.PerPhase {
		cp.PerPhase[k] = v
	}
	return &cp
}

// buildFaultReport aggregates the per-proc counters after a run; the
// caller (finishRun) holds m.mu and has already folded residuals into
// the per-proc counters.
func buildFaultReport(seed uint64, procs []*Proc) *FaultReport {
	rep := &FaultReport{Seed: seed, PerRank: make([]FaultCounters, len(procs)), PerPhase: map[string]FaultCounters{}}
	for i, p := range procs {
		rep.PerRank[i] = p.faults
		rep.Total.add(p.faults)
		for phase, c := range p.phaseFaults {
			agg := rep.PerPhase[phase]
			agg.add(c)
			rep.PerPhase[phase] = agg
		}
	}
	return rep
}

// FaultBudgetError reports a message the reliable transport gave up on
// after exhausting its retry budget. Run returns it as the run error
// (it outranks the induced deadlock unwinds of the peers), and the
// FaultReport of the aborted run remains available for diagnosis.
type FaultBudgetError struct {
	Rank, Dst, Tag, Attempts int
}

func (e *FaultBudgetError) Error() string {
	return fmt.Sprintf("sim: fault budget exhausted: processor %d gave up sending to %d (tag %d) after %d attempts",
		e.Rank, e.Dst, e.Tag, e.Attempts)
}

// IsFaultBudget reports whether err (or anything it wraps) is a
// FaultBudgetError.
func IsFaultBudget(err error) bool {
	var fe *FaultBudgetError
	return errors.As(err, &fe)
}

// faultMix64 is the splitmix64 finalizer — the same generator the mask
// package uses, duplicated privately so the two packages stay
// dependency-free of each other.
func faultMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultUniform returns a uniform in [0, 1) for decision slot `slot` of
// the processor's current delivery attempt. It depends only on the
// seed, the rank, the per-rank attempt counter, and the slot.
func (p *Proc) faultUniform(slot uint64) float64 {
	h := faultMix64(p.m.cfg.Faults.Seed ^ faultMix64(uint64(p.rank)<<32|p.faultSeq<<3|slot))
	return float64(h>>11) / (1 << 53)
}

// bumpFault applies f to the processor's run-total and current-phase
// fault counters.
func (p *Proc) bumpFault(f func(*FaultCounters)) {
	f(&p.faults)
	if p.phaseFaults == nil {
		p.phaseFaults = make(map[string]FaultCounters)
	}
	c := p.phaseFaults[p.phase]
	f(&c)
	p.phaseFaults[p.phase] = c
}

// Faults returns the machine's normalized fault plan, nil when fault
// injection is off. Callers must treat the result as read-only.
func (p *Proc) Faults() *FaultConfig { return p.m.cfg.Faults }

// CommState is an opaque per-run slot where a higher communication
// layer hangs protocol state off the processor (the reliable-delivery
// transport in internal/comm keeps its sequence counters and
// out-of-order stash here). The slot is nil at the start of every Run.
func (p *Proc) CommState() *any { return &p.commState }

// TrySend is the fault-injectable delivery attempt the reliable
// transport is built on. Without a fault plan it is exactly Send (and
// always succeeds). With one, the sender first suffers any scheduled
// stall, then pays the full wire occupancy (Tau + Mu*words — a lost
// message still occupied the sender's network interface), and the
// attempt's fate is decided by the plan: dropped attempts return false
// and deliver nothing; surviving attempts may be delayed, reordered
// ahead of the destination's queue, or duplicated, and return true.
//
// The emulator is omniscient, so "the sender knows the attempt was
// dropped" stands in for the acknowledgement a real protocol would
// wait on; RetryWait charges that wait explicitly.
func (p *Proc) TrySend(dst, tag int, payload any, words int) bool {
	f := p.m.cfg.Faults
	if f == nil {
		p.Send(dst, tag, payload, words)
		return true
	}
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("sim: TrySend to invalid rank %d (P=%d)", dst, p.m.cfg.Procs))
	}
	if words < 0 {
		panic("sim: TrySend with negative word count")
	}
	p.faultSeq++
	p.bumpFault(func(c *FaultCounters) { c.Attempts++ })

	// Transient processor stall before the send goes out.
	if f.Stall > 0 && p.faultUniform(0) < f.Stall {
		stall := f.StallMax * (0.25 + 0.75*p.faultUniform(1))
		p.bumpFault(func(c *FaultCounters) { c.Stalls++ })
		if p.tracing() {
			p.flushCharge()
			p.emit(Event{Kind: EvFaultStall, Peer: dst, Tag: tag, Time: p.clock + stall, Dur: stall})
		}
		p.addComp(stall)
	}

	// Wire occupancy, exactly as in Send.
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

	if f.Drop > 0 && p.faultUniform(2) < f.Drop {
		p.bumpFault(func(c *FaultCounters) { c.Drops++ })
		if p.tracing() {
			p.emit(Event{Kind: EvFaultDrop, Peer: dst, Tag: tag, Words: words, Time: p.clock, MsgID: id})
		}
		return false
	}

	arrival := p.clock
	if f.Delay > 0 && p.faultUniform(3) < f.Delay {
		extra := f.DelayMax * (0.25 + 0.75*p.faultUniform(4))
		arrival += extra
		p.bumpFault(func(c *FaultCounters) { c.Delays++ })
		if p.tracing() {
			p.emit(Event{Kind: EvFaultDelay, Peer: dst, Tag: tag, Words: words, Time: arrival, Dur: extra, MsgID: id})
		}
	}

	msg := message{src: p.rank, tag: tag, payload: payload, words: words, arrival: arrival, id: id}
	reordered := f.Reorder > 0 && p.faultUniform(5) < f.Reorder
	dup := f.Dup > 0 && p.faultUniform(6) < f.Dup
	if reordered {
		// The message falls behind in the network: hold it on the sender
		// until a later delivery to the same destination overtakes it
		// (or a flush point releases it unovertaken, see flushHeld). A
		// duplicate of a held message falls behind with it.
		p.bumpFault(func(c *FaultCounters) { c.Reorders++ })
		if p.tracing() {
			p.emit(Event{Kind: EvFaultReorder, Peer: dst, Tag: tag, Words: words, Time: arrival, MsgID: id})
		}
		p.held = append(p.held, heldMsg{dst: dst, m: msg})
		if dup {
			p.bumpFault(func(c *FaultCounters) { c.Dups++ })
			if p.tracing() {
				p.emit(Event{Kind: EvFaultDup, Peer: dst, Tag: tag, Words: words, Time: arrival, MsgID: id})
			}
			p.held = append(p.held, heldMsg{dst: dst, m: msg})
		}
		return true
	}
	p.deliver(dst, msg)
	if dup {
		p.bumpFault(func(c *FaultCounters) { c.Dups++ })
		if p.tracing() {
			p.emit(Event{Kind: EvFaultDup, Peer: dst, Tag: tag, Words: words, Time: arrival, MsgID: id})
		}
		p.deliver(dst, msg)
	}
	p.flushHeld(dst) // this delivery overtook anything held for dst
	return true
}

// heldMsg is a reorder-faulted message waiting on its sender to be
// overtaken (see FaultConfig.Reorder).
type heldMsg struct {
	dst int
	m   message
}

// flushHeld delivers the held (reorder-faulted) messages for dst, in
// hold order; dst < 0 flushes every destination. Flush points are all
// sender-local, so the delivery order of every (sender, destination)
// pair — the only order receive matching can observe — is a pure
// function of the sender's operation sequence:
//
//   - a surviving TrySend to the same destination (the overtake);
//   - the sender entering Recv (it may block there, and a held message
//     must never be the one a blocked peer is waiting for);
//   - the end of the sender's run body, for the same reason.
func (p *Proc) flushHeld(dst int) {
	if len(p.held) == 0 {
		return
	}
	rest := p.held
	p.held = rest[:0]
	for _, h := range rest {
		if dst < 0 || h.dst == dst {
			p.deliver(h.dst, h.m)
		} else {
			p.held = append(p.held, h)
		}
	}
	// Zero the vacated tail slots so delivered payloads do not stay
	// reachable through the slice's spare capacity.
	for i := len(p.held); i < len(rest); i++ {
		rest[i] = heldMsg{}
	}
}

// RetryWait charges the reliable sender's retransmission timeout — the
// virtual time a real protocol would spend waiting for an
// acknowledgement that never came — and counts the retry. It must only
// be called with fault injection on.
func (p *Proc) RetryWait(dst, tag int) {
	f := p.m.cfg.Faults
	if f == nil {
		panic("sim: RetryWait without a fault plan")
	}
	p.bumpFault(func(c *FaultCounters) { c.Retries++ })
	p.addComm(f.RetryTimeout)
	if p.tracing() {
		p.flushCharge()
		p.emit(Event{Kind: EvRetry, Peer: dst, Tag: tag, Time: p.clock, Dur: f.RetryTimeout})
	}
}

// NoteDedup records a duplicate envelope discarded by the reliable
// receiver.
func (p *Proc) NoteDedup(src, tag int) {
	p.bumpFault(func(c *FaultCounters) { c.Dedups++ })
	if p.tracing() {
		p.flushCharge()
		p.emit(Event{Kind: EvDedup, Peer: src, Tag: tag, Time: p.clock})
	}
}

// NoteStash records an out-of-order envelope the reliable receiver
// parked until the gap before it fills.
func (p *Proc) NoteStash(src, tag int) {
	p.bumpFault(func(c *FaultCounters) { c.Stashes++ })
}

// FaultGiveUp aborts the calling processor with a FaultBudgetError;
// the reliable transport calls it when a message exhausts MaxRetries.
func (p *Proc) FaultGiveUp(dst, tag, attempts int) {
	panic(&FaultBudgetError{Rank: p.rank, Dst: dst, Tag: tag, Attempts: attempts})
}
