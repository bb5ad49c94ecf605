// Package transport is the pluggable communication layer the
// algorithms program against. It defines three interfaces:
//
//   - Endpoint, the per-processor handle inside an SPMD run: point-to-
//     point send/receive, cost charging, and the clock/phase hooks.
//     Everything in internal/comm, internal/ranking, internal/pack and
//     internal/redist takes an Endpoint, never a concrete machine
//     type.
//   - FaultEndpoint, the optional fault-injection surface layered on
//     an Endpoint. Only the emulator implements it; the reliable
//     transport in internal/comm looks it up by type assertion.
//   - Machine, the runner that executes an SPMD body once per
//     processor and exposes the run's statistics afterwards.
//
// Two backends implement them:
//
//   - BackendSim wraps the internal/sim virtual-clock emulator
//     (simadapter.go): messages really move, but time is virtual and
//     advances by the paper's two-level cost model. Deterministic,
//     traceable, fault-injectable — the byte-exact oracle.
//   - BackendReal is a real shared-memory parallel machine (real.go):
//     the P processor bodies run as host goroutines (pinned to OS
//     threads when the host has the cores) communicating through
//     unbounded lock-free SPSC queues. No virtual charging — Clock
//     reports wall time since the run started.
//
// Both backends present identical message semantics (eager sends,
// FIFO per (source, destination, tag) stream, tag-matched receives),
// so an algorithm that is correct on one is correct on the other, and
// the cross-backend conformance suite pins that the results are
// byte-identical. Virtual metrics (clocks, phase breakdowns, cost
// charges) are meaningful on the sim backend only; the real backend
// counts ops/messages/words and measures wall time. Both backends are
// observable through one output, the same structured trace-event
// stream (sim.Event — virtual timestamps on sim, wall-clock
// microseconds on real; the two never mix in one capture, see
// DESIGN.md §14), and both prove a deadlock structurally instead of
// timing one out.
package transport

import (
	"fmt"

	"packunpack/internal/sim"
)

// Endpoint is the point-to-point core of the per-processor transport
// handle of an SPMD run; collectives are layered on top of it in
// internal/comm. It is only valid inside the body function passed to
// Machine.Run and must not be shared between goroutines. *sim.Proc
// implements it for the emulator; realProc implements it for the
// shared-memory backend.
type Endpoint interface {
	// Rank returns this processor's id in [0, NProcs).
	Rank() int
	// NProcs returns the machine size P.
	NProcs() int
	// Params returns the machine's two-level cost-model constants. The
	// real backend carries them too: algorithm selection rules (the
	// PRS auto rule) consult the model on every backend, so both
	// backends take identical decisions.
	Params() sim.Params
	// Clock returns the current time in microseconds: virtual time on
	// the sim backend, wall time since the run started on the real one.
	Clock() float64
	// SetPhase switches cost/stat attribution to the named phase and
	// returns the previous phase name.
	SetPhase(name string) (previous string)
	// Charge accounts for ops local elementary operations. The sim
	// backend advances the virtual clock by ops*Delta; the real
	// backend only counts them (real work takes real time).
	Charge(ops int)

	// Send transmits payload (words machine words long) to processor
	// dst with the given tag. It never blocks (eager protocol).
	Send(dst, tag int, payload any, words int)
	// SendFree transmits a zero-cost control message (out-of-band
	// modelling channel; never fault-injected, never counted).
	SendFree(dst, tag int, payload any)
	// Recv blocks until a message with the given source and tag
	// arrives and returns its payload and word count. Messages of one
	// (src, tag) stream are delivered in send order.
	Recv(src, tag int) (payload any, words int)
}

// FaultEndpoint is an Endpoint whose network can misbehave under a
// seeded fault plan. Fault injection is a modelling device of the
// emulator's omniscient network (DESIGN.md §13), so *sim.Proc is the
// only implementation; the real backend's endpoint is a plain
// Endpoint. The reliable transport in internal/comm is the one caller.
type FaultEndpoint interface {
	Endpoint
	// Faults returns the machine's fault plan, nil when fault
	// injection is off.
	Faults() *sim.FaultConfig
	// TrySend is the fault-injectable delivery attempt the reliable
	// transport is built on. Without a fault plan it is exactly Send
	// and always reports success.
	TrySend(dst, tag int, payload any, words int) bool
	// RetryWait charges the reliable sender's retransmission timeout;
	// only meaningful with a fault plan installed.
	RetryWait(dst, tag int)
	// FaultGiveUp aborts the calling processor with a FaultBudgetError
	// after a message exhausted its retry budget.
	FaultGiveUp(dst, tag, attempts int)
	// NoteDedup / NoteStash record reliable-receiver recovery actions.
	NoteDedup(src, tag int)
	NoteStash(src, tag int)
	// CommState is an opaque per-run slot where a higher communication
	// layer hangs protocol state off the processor.
	CommState() *any
}

// Machine runs SPMD bodies over one of the backends.
type Machine interface {
	// Procs returns the number of logical processors P.
	Procs() int
	// Params returns the machine cost constants.
	Params() sim.Params
	// Run executes body once per processor and blocks until every
	// processor finishes. It may be called repeatedly but not
	// concurrently on one machine.
	Run(body func(Endpoint)) error
	// Stats returns the per-processor statistics of the most recent
	// Run, ordered by rank. Sim fills the full virtual breakdown; the
	// real backend fills the counters (Ops, MsgsSent, WordsSent) and
	// reports wall time in Clock.
	Stats() []sim.Stats
	// MaxClock returns the largest final per-processor clock of the
	// most recent Run in microseconds (virtual on sim, wall on real).
	MaxClock() float64
	// Backend identifies the implementation.
	Backend() Backend
}

// Backend names a Machine implementation.
type Backend int

const (
	// BackendSim is the virtual-clock emulator (internal/sim).
	BackendSim Backend = iota
	// BackendReal is the shared-memory parallel backend (real.go).
	BackendReal
)

func (b Backend) String() string {
	switch b {
	case BackendSim:
		return "sim"
	case BackendReal:
		return "real"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps the -backend flag values of packtrace to a
// Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sim":
		return BackendSim, nil
	case "real":
		return BackendReal, nil
	}
	return 0, fmt.Errorf("transport: unknown backend %q (want sim or real)", s)
}

// New builds a Machine of the requested backend from a sim.Config.
// The sim backend honours every Config field, and its endpoints are
// FaultEndpoints. The real backend maps Procs, Params and Sink (events
// carry wall-clock microsecond timestamps instead of virtual time);
// its endpoints are plain Endpoints, and it rejects fault injection,
// which genuinely needs the emulator's omniscient network.
func New(b Backend, cfg sim.Config) (Machine, error) {
	switch b {
	case BackendSim:
		m, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		return &SimMachine{M: m}, nil
	case BackendReal:
		if cfg.Faults != nil {
			return nil, fmt.Errorf("transport: fault injection is sim-only (the real network is not under our control); run the fault plan on the sim backend")
		}
		return NewReal(RealConfig{Procs: cfg.Procs, Params: cfg.Params, Sink: cfg.Sink})
	}
	return nil, fmt.Errorf("transport: unknown backend %v", b)
}
