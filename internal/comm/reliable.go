package comm

// This file is the reliable-delivery transport every collective in
// this package rides on. The fault-injection hooks live on the
// optional transport.FaultEndpoint, which NewGroup looks up once: the
// group keeps it only when the endpoint implements it and a fault plan
// is installed (never on the real backend). Without one the wrappers
// are exact pass-throughs to Endpoint.Send/Recv — not one extra word,
// charge, allocation, or per-message hook call — so the perf-gate
// contract (virtual metrics bit-for-bit against the committed
// baseline) is untouched. With fault injection on, every logical
// message becomes a sequence-numbered envelope sent through the
// fault-injectable FaultEndpoint.TrySend and recovered on both sides:
//
//   - Sender: a dropped attempt costs the retransmission timeout
//     (FaultEndpoint.RetryWait models the acknowledgement that never
//     came) and is re-sent, up to the plan's MaxRetries budget; past the
//     budget the run aborts with a sim.FaultBudgetError while the
//     machine's FaultReport keeps the full injection/recovery tally.
//   - Receiver: envelopes are consumed strictly in sequence order per
//     (peer, tag) stream. A duplicate (sequence already consumed) is
//     discarded idempotently; an overtaking envelope (sequence from
//     the future, the result of a reorder or a retry racing a delayed
//     original) is stashed until the gap before it fills.
//
// Together these give exactly-once, in-order delivery per stream over
// a network that drops, duplicates, reorders, and delays — which is
// why every collective (barrier, broadcast, gather, prefix-reduction-
// sum, all-to-all) completes with byte-identical results under any
// fault schedule. Determinism is inherited from the fault layer: all
// decisions hash from (seed, rank, attempt counter), so a seed replays
// identical faults and identical recoveries.
//
// The SkipEmpty probe channel (SendFree) stays outside the protocol:
// it is documented as zero-cost out-of-band knowledge, i.e. modelled
// as infallible, and the fault layer never injects into SendFree.

import (
	"fmt"

	"packunpack/internal/transport"
)

// envelope is the wire format of the reliable transport: the payload
// plus its per-(sender, receiver, tag) sequence number. It costs one
// extra machine word on the wire.
type envelope struct {
	seq     uint64
	payload any
}

// streamKey identifies one direction of a point-to-point stream from
// the owning processor's perspective: the peer's global rank and the
// message tag.
type streamKey struct {
	peer, tag int
}

// stashKey addresses an out-of-order envelope parked at the receiver.
type stashKey struct {
	peer, tag int
	seq       uint64
}

type stashVal struct {
	payload any
	words   int
}

// xport is a processor's transport state for the run: send and receive
// sequence counters per stream and the out-of-order stash. It lives in
// the processor's CommState slot, so it resets with every Machine.Run
// and needs no locking (only the owning processor touches it).
type xport struct {
	sendSeq map[streamKey]uint64
	recvSeq map[streamKey]uint64
	stash   map[stashKey]stashVal
}

func xportOf(p transport.FaultEndpoint) *xport {
	slot := p.CommState()
	if *slot == nil {
		*slot = &xport{
			sendSeq: make(map[streamKey]uint64),
			recvSeq: make(map[streamKey]uint64),
			stash:   make(map[stashKey]stashVal),
		}
	}
	return (*slot).(*xport)
}

// send transmits payload to the processor with global rank dst,
// reliably when fault injection is on. words is the payload size in
// machine words; the envelope header adds one word on the faulted
// path.
func (g Group) send(dst, tag int, payload any, words int) {
	p := g.f
	if p == nil {
		g.p.Send(dst, tag, payload, words)
		return
	}
	st := xportOf(p)
	k := streamKey{peer: dst, tag: tag}
	seq := st.sendSeq[k]
	st.sendSeq[k] = seq + 1
	p.Charge(1) // compose the sequence header
	env := envelope{seq: seq, payload: payload}
	for attempt := 1; ; attempt++ {
		if p.TrySend(dst, tag, env, words+1) {
			return
		}
		if attempt > p.Faults().MaxRetries {
			p.FaultGiveUp(dst, tag, attempt)
		}
		p.RetryWait(dst, tag)
	}
}

// recv returns the next in-sequence payload of the (src, tag) stream,
// discarding duplicates and holding overtakers until their turn. With
// fault injection off it is exactly Endpoint.Recv.
func (g Group) recv(src, tag int) (payload any, words int) {
	p := g.f
	if p == nil {
		return g.p.Recv(src, tag)
	}
	st := xportOf(p)
	k := streamKey{peer: src, tag: tag}
	want := st.recvSeq[k]
	for {
		if v, ok := st.stash[stashKey{peer: src, tag: tag, seq: want}]; ok {
			delete(st.stash, stashKey{peer: src, tag: tag, seq: want})
			st.recvSeq[k] = want + 1
			return v.payload, v.words
		}
		raw, w := p.Recv(src, tag)
		env, ok := raw.(envelope)
		if !ok {
			// A raw Send into a reliable stream would deliver an
			// unsequenced payload here; that is a protocol-layering bug,
			// not a recoverable fault.
			panic(fmt.Sprintf("comm: unsequenced message from %d on reliable stream tag %d", src, tag))
		}
		p.Charge(1) // inspect the sequence header
		switch {
		case env.seq == want:
			st.recvSeq[k] = want + 1
			return env.payload, w - 1
		case env.seq < want:
			p.NoteDedup(src, tag)
		default:
			key := stashKey{peer: src, tag: tag, seq: env.seq}
			if _, dup := st.stash[key]; dup {
				p.NoteDedup(src, tag)
				continue
			}
			p.NoteStash(src, tag)
			st.stash[key] = stashVal{payload: env.payload, words: w - 1}
		}
	}
}
