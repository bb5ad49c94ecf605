package sim

// This file is the structured event-tracing layer of the emulator
// (Config.Sink). The event stream answers "what was each processor
// doing over time" and "which message, from whom, when, and why did it
// matter": every send, delivery, posted receive, wake-up, phase
// transition, and charge batch becomes one Event with virtual
// timestamps and enough identity (message ids, sequence numbers) to
// reconstruct timelines, send→receive flows and blocking chains after
// the run. Every clock advance is covered by exactly one event (a
// charge batch, a send, a receive wake, a fault stall or a retry
// wait), so the exporters in internal/trace derive the span timelines,
// Chrome/Perfetto JSON, communication matrices and the critical path
// from this one stream.
//
// Overhead discipline: tracing is opt-in and the hot paths pay exactly
// one nil check (Sink != nil) when it is off. When it is on, contiguous
// Charge calls in the same phase collapse into a single pending batch
// that is flushed lazily (on the next communication event, phase
// switch, or at body end), so a tight scan loop of N Charge calls
// produces one event, not N. Events carry no pointers into simulator
// state.

// EventKind enumerates the structured trace event types.
type EventKind uint8

const (
	// EvSend marks a completed message send on the sender's timeline:
	// Time is the completion instant (= the receiver-visible arrival
	// time), Dur the Tau+Mu*words occupancy, Peer the destination.
	EvSend EventKind = iota
	// EvDeliver marks the message being enqueued at the destination
	// mailbox. It is recorded on the sender's timeline (the sender
	// performs the delivery) with Peer = destination; for SendFree
	// messages it is the only record of the transfer.
	EvDeliver
	// EvRecvBlock marks a receive being posted: the processor asked for
	// (Peer, Tag) at Time and will consume the matching message, waiting
	// if it has not arrived yet.
	EvRecvBlock
	// EvRecvWake marks the receive completing: Time is the instant the
	// processor proceeds (its clock after any wait), Dur the waited
	// virtual time (zero when the message had already arrived), Peer the
	// source, and MsgID links back to the matching EvSend/EvDeliver.
	EvRecvWake
	// EvPhase marks a phase transition; Phase is the new phase name.
	EvPhase
	// EvCharge is a merged batch of local elementary operations: Ops
	// operations ending at Time, Dur virtual microseconds long.
	// Contiguous charges in one phase collapse into a single event.
	EvCharge
	// EvFaultDrop marks an injected message drop on the sender's
	// timeline: the attempt identified by MsgID paid its wire occupancy
	// but never reached the destination mailbox (fault.go).
	EvFaultDrop
	// EvFaultDup marks an injected duplication: the destination
	// received a second copy of the message identified by MsgID.
	EvFaultDup
	// EvFaultReorder marks an injected reordering: the message fell
	// behind in the network, held on the sender until its next
	// surviving delivery to the same destination overtakes it.
	EvFaultReorder
	// EvFaultDelay marks an injected delivery delay: Dur extra virtual
	// microseconds before the message becomes available, Time the
	// delayed arrival.
	EvFaultDelay
	// EvFaultStall marks an injected transient processor stall of Dur
	// virtual microseconds ending at Time, charged as local time before
	// a delivery attempt.
	EvFaultStall
	// EvRetry marks the reliable transport re-sending after a
	// retransmission timeout: Dur is the timeout charged, Peer the
	// destination of the retried message.
	EvRetry
	// EvDedup marks the reliable receiver discarding a duplicate
	// envelope from Peer.
	EvDedup
)

func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvDeliver:
		return "deliver"
	case EvRecvBlock:
		return "recv-block"
	case EvRecvWake:
		return "recv-wake"
	case EvPhase:
		return "phase"
	case EvCharge:
		return "charge"
	case EvFaultDrop:
		return "fault-drop"
	case EvFaultDup:
		return "fault-dup"
	case EvFaultReorder:
		return "fault-reorder"
	case EvFaultDelay:
		return "fault-delay"
	case EvFaultStall:
		return "fault-stall"
	case EvRetry:
		return "retry"
	case EvDedup:
		return "dedup"
	}
	return "unknown"
}

// Event is one structured trace record. All times are virtual
// microseconds on the emulated machine's clocks.
type Event struct {
	// Kind discriminates the record; see the EventKind constants for
	// which of the remaining fields are meaningful.
	Kind EventKind
	// Seq is the event's sequence number. On the emulator it is a
	// machine-global counter, so the total order of events is
	// deterministic across runs; the real backend numbers each rank's
	// events on its own (per-rank streams are still ordered, but the
	// interleaving between ranks is whatever the host produced).
	Seq uint64
	// Rank is the processor whose timeline the event belongs to.
	Rank int
	// Peer is the other endpoint: destination for EvSend/EvDeliver,
	// source for EvRecvBlock/EvRecvWake.
	Peer int
	// Tag is the message tag for communication events.
	Tag int
	// Words is the message length in machine words.
	Words int
	// Ops is the operation count of an EvCharge batch.
	Ops int64
	// Time is the virtual instant the event occurs (for EvSend the send
	// completion, for EvRecvWake the wake-up, for EvCharge the batch
	// end).
	Time float64
	// Dur is the event's extent: send occupancy, receive wait, or
	// charge-batch length.
	Dur float64
	// Phase is the cost-attribution phase current when the event was
	// recorded (for EvPhase, the phase being switched to).
	Phase string
	// MsgID identifies a message across its send, delivery, and receive
	// events; it is unique within a run and deterministic
	// (rank-qualified send counter). Zero means "not a message event"
	// or "tracing was off when the message was sent".
	MsgID uint64
}

// EventSink receives every trace event as it is produced, in timeline
// order per processor. Emit is called by the logical processor that
// owns the event: on the emulator calls are fully serialized, on the
// real backend different ranks call concurrently and the sink must be
// safe for that. Implementations must be cheap — they run on the hot
// path.
type EventSink interface {
	Emit(Event)
}

// SizedSink is an EventSink built for a fixed number of ranks (the
// retaining, aggregating and flight-recorder sinks of internal/trace,
// and any fan-out holding one). Procs is the number of ranks it can
// hold; both backends reject a sink smaller than the machine, which
// would otherwise drop the extra ranks' events without an error.
type SizedSink interface {
	EventSink
	Procs() int
}

// msgID builds the rank-qualified message id: the sender's rank in the
// high bits, its running send count in the low bits. Deterministic
// because each processor numbers only its own sends.
func msgID(rank int, n uint64) uint64 {
	return uint64(rank)<<40 | n
}

// MsgIDSrc recovers the sending rank encoded in a message id.
func MsgIDSrc(id uint64) int { return int(id >> 40) }

// MakeMsgID builds the rank-qualified message id (the inverse of
// MsgIDSrc). Exported for the real backend, which numbers its own
// sends with the same scheme so both backends' event streams key
// send→receive flows identically.
func MakeMsgID(rank int, n uint64) uint64 { return msgID(rank, n) }

// tracing reports whether the processor emits events: the one gate
// every emit site tests.
func (p *Proc) tracing() bool { return p.m.cfg.Sink != nil }

// emit stamps one event with the next machine-global sequence number
// and hands it to the sink. Callers must have flushed any pending
// charge batch first so the stream stays in timeline order.
func (p *Proc) emit(ev Event) {
	p.m.seq++
	ev.Seq = p.m.seq
	ev.Rank = p.rank
	if ev.Phase == "" {
		ev.Phase = p.phase
	}
	p.m.cfg.Sink.Emit(ev)
}

// noteCharge folds one Charge call into the pending batch, starting a
// new batch when the charge is not contiguous with it (different phase
// or an intervening event).
func (p *Proc) noteCharge(start float64, ops int64) {
	if p.chargeOpen && p.chargeEnd == start {
		p.chargeEnd = p.clock
		p.chargeOps += ops
		return
	}
	p.flushCharge()
	p.chargeOpen = true
	p.chargeStart = start
	p.chargeEnd = p.clock
	p.chargeOps = ops
}

// flushCharge emits the pending charge batch, if any. Called before
// every non-charge event, on phase transitions, and at body end, so a
// batch can never straddle another event in the stream.
func (p *Proc) flushCharge() {
	if !p.chargeOpen {
		return
	}
	p.chargeOpen = false
	p.emit(Event{
		Kind: EvCharge,
		Ops:  p.chargeOps,
		Time: p.chargeEnd,
		Dur:  p.chargeEnd - p.chargeStart,
	})
}
