package sim

import (
	"fmt"
	"strings"
)

// This file is the emulator's scheduler. The P processor bodies live
// on goroutines — each needs its own stack to block in the middle of
// an algorithm — but they run strictly one at a time: the runnable
// processor with the smallest virtual clock (ties broken by rank, so
// runs are fully deterministic) holds the baton until it blocks in
// Recv with no matching message, finishes, or panics, and then resumes
// its successor directly. Handoffs go through one-slot channels — the
// sender performs no scheduler work after the send, which enforces the
// one-runner-at-a-time invariant, and the send happens-before the
// matching receive, which makes the lock-free mailbox access race-safe.
//
// Because every blocked receive and every delivered message passes
// through the scheduler state, a wedged machine is not inferred from
// timing: the moment no processor is runnable while some are blocked,
// the machine is proven deadlocked (no matching message exists anywhere
// for any waiter) and every waiter is unwound immediately with a full
// wait-for diagnostic — no ticker, no trip latency, no host-load
// sensitivity.
//
// Two design points keep the scheduling overhead off the critical path
// on large machines:
//
//   - Readiness is event-driven: a delivery that satisfies the
//     destination's pending receive flips it to runnable right then
//     (noteDeliver, O(1) per message) instead of a wake-scan over all
//     blocked mailboxes per handoff (O(P·queue)).
//   - The runnable set is a binary heap ordered by (clock, rank), so
//     picking the successor is O(log P) instead of an O(P) scan. A
//     processor's clock only advances while it runs, and the heap only
//     ever holds parked processors, so the keys are immutable while
//     enqueued and the heap invariant cannot rot.

// coopRunState is a processor's scheduling state.
type coopRunState uint8

const (
	coopReady   coopRunState = iota // runnable (includes not-yet-started)
	coopBlocked                     // parked in Recv on (src, tag)
	coopDone                        // body returned or panicked
)

// coopSched is the per-run cooperative scheduler state. Only the
// currently running processor touches it, with channel handoffs
// ordering every access.
type coopSched struct {
	resume   []chan bool // per rank; false resumes only to unwind a deadlock
	finished chan struct{}
	state    []coopRunState
	waiting  []waitInfo // valid where state == coopBlocked
	procs    []*Proc
	m        *Machine
	diag     error

	ready []int // binary min-heap of runnable ranks, keyed by (clock, rank)
	left  int   // processors whose body has not finished
}

// less orders the ready heap by virtual clock, ties by rank.
func (c *coopSched) less(a, b int) bool {
	ca, cb := c.procs[a].clock, c.procs[b].clock
	return ca < cb || (ca == cb && a < b)
}

// pushReady enqueues a runnable rank.
func (c *coopSched) pushReady(r int) {
	c.ready = append(c.ready, r)
	i := len(c.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(c.ready[i], c.ready[parent]) {
			break
		}
		c.ready[i], c.ready[parent] = c.ready[parent], c.ready[i]
		i = parent
	}
}

// popReady dequeues the runnable rank with the smallest clock, or -1.
func (c *coopSched) popReady() int {
	n := len(c.ready)
	if n == 0 {
		return -1
	}
	top := c.ready[0]
	c.ready[0] = c.ready[n-1]
	c.ready = c.ready[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && c.less(c.ready[l], c.ready[small]) {
			small = l
		}
		if r < n && c.less(c.ready[r], c.ready[small]) {
			small = r
		}
		if small == i {
			break
		}
		c.ready[i], c.ready[small] = c.ready[small], c.ready[i]
		i = small
	}
	return top
}

// noteDeliver flips a blocked destination whose pending receive this
// message satisfies back to runnable. Called at every delivery by the
// running processor.
func (c *coopSched) noteDeliver(dst, src, tag int) {
	if c.state[dst] == coopBlocked && c.waiting[dst].src == src && c.waiting[dst].tag == tag {
		c.state[dst] = coopReady
		c.pushReady(dst)
	}
}

// passBaton hands control to the next runnable processor: the caller is
// parked (or done) and exactly one successor is woken. When nothing is
// runnable it either declares the run finished or proves a deadlock and
// starts unwinding the waiters one by one (each unwound processor's
// exit path calls passBaton again, continuing the chain).
func (c *coopSched) passBaton() {
	if c.left == 0 {
		close(c.finished)
		return
	}
	if pick := c.popReady(); pick >= 0 {
		c.resume[pick] <- true
		return
	}
	// No processor is runnable and not all are done: the machine is
	// wedged, exactly and provably. Record the full wait-for picture
	// once, then unwind the lowest-ranked waiter; its panic path brings
	// the baton back here for the next.
	if c.diag == nil {
		c.diag = c.deadlockDiagnostic(c.m)
	}
	for r, st := range c.state {
		if st == coopBlocked {
			c.resume[r] <- false
			return
		}
	}
	panic("sim: internal error: live processors but none ready or blocked")
}

// yieldBlocked parks the calling processor until a matching delivery
// resumes it. It returns false when the machine is deadlocked and the
// caller must unwind.
func (c *coopSched) yieldBlocked(rank, src, tag int) bool {
	c.waiting[rank] = waitInfo{src: src, tag: tag}
	c.state[rank] = coopBlocked
	c.passBaton()
	return <-c.resume[rank]
}

// take removes and returns the first message matching (src, tag),
// handing the baton to the next processor while none is queued.
// Messages from a given source with a given tag are delivered in send
// order. No locks — the scheduler guarantees exclusive access. If the
// machine deadlocks while this processor waits, take panics with a
// deadlockError (recovered by Run into an error).
func (b *mailbox) take(c *coopSched, rank, src, tag int) message {
	for {
		for i := range b.queue {
			if b.queue[i].src == src && b.queue[i].tag == tag {
				return b.removeAt(i)
			}
		}
		if !c.yieldBlocked(rank, src, tag) {
			panic(deadlockError{rank: rank, src: src, tag: tag})
		}
	}
}

// deadlockDiagnostic renders the exact wait-for table of a wedged
// machine: every live processor, what it waits for, and how many
// unmatched messages sit in its mailbox.
func (c *coopSched) deadlockDiagnostic(m *Machine) error {
	var sb strings.Builder
	blocked := 0
	for r, st := range c.state {
		if st != coopBlocked {
			continue
		}
		if blocked > 0 {
			sb.WriteString("; ")
		}
		blocked++
		w := c.waiting[r]
		fmt.Fprintf(&sb, "processor %d waits for (src=%d, tag=%d) with %d queued messages, none matching",
			r, w.src, w.tag, len(m.boxes[r].queue))
	}
	return fmt.Errorf("%w: all %d live processors blocked on receives no send will ever satisfy: %s", ErrDeadlock, blocked, sb.String())
}

// runCoop executes body once per processor under the scheduler.
func (m *Machine) runCoop(body func(p *Proc)) error {
	n := m.cfg.Procs
	c := &coopSched{
		resume:   make([]chan bool, n),
		finished: make(chan struct{}),
		state:    make([]coopRunState, n),
		waiting:  make([]waitInfo, n),
		m:        m,
		left:     n,
	}
	// The resume channels carry the baton. A one-slot buffer lets a
	// processor that discovers the deadlock while being the only (or
	// lowest-ranked) blocked waiter post its own unwind token before
	// parking — with an unbuffered channel that self-send would hang.
	// The handoff discipline is unchanged: the sender does no scheduler
	// work after the send, so at most one processor runs at a time, and
	// the buffered send still happens-before the matching receive.
	for i := range c.resume {
		c.resume[i] = make(chan bool, 1)
	}
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = &Proc{
			rank:  i,
			m:     m,
			cs:    c,
			box:   &m.boxes[i],
			phase: "default",
			stats: Stats{Rank: i, Phases: make(map[string]PhaseStats)},
		}
	}
	c.procs = procs
	errs := make([]error, n)
	for _, p := range procs {
		go func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					errs[p.rank] = recoverRankErr(p.rank, r)
				}
				c.state[p.rank] = coopDone
				c.left--
				c.passBaton()
			}()
			if !<-c.resume[p.rank] {
				return // unwound before first being scheduled
			}
			body(p)
			p.flushHeld(-1) // release reorder-held messages before finishing
		}(p)
	}

	// Seed the ready heap with every processor (all clocks zero, so rank
	// 0 starts) and kick off the baton chain; the goroutine whose exit
	// leaves nothing to do closes finished.
	for r := 0; r < n; r++ {
		c.pushReady(r)
	}
	c.passBaton()
	<-c.finished
	return m.finishRun(procs, errs, c.diag)
}
