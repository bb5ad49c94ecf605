package transport

import "sync/atomic"

// rmsg is one in-flight message of the real backend. No arrival time:
// a message is available the moment the enqueue happens.
type rmsg struct {
	tag     int
	payload any
	words   int
	free    bool   // SendFree control message (uncounted)
	id      uint64 // trace message id (sim.MakeMsgID); 0 when tracing is off
}

// spscNode is one link of the unbounded SPSC queue.
type spscNode struct {
	next atomic.Pointer[spscNode]
	msg  rmsg
}

// spscQueue is an unbounded lock-free single-producer single-consumer
// queue — one per ordered (source, destination) processor pair, so the
// producer is always the source's goroutine and the consumer always
// the destination's. The producer owns tail, the consumer owns head,
// and the only shared word is the atomic next pointer of the current
// tail: the producer's Store publishes the node (and the msg written
// before it) to the consumer's Load, which is the happens-before edge
// that makes the design race-free without locks.
//
// Sends never block (the eager protocol both backends share): the list
// grows as needed. A consumer that finds the queue empty parks on the
// notify channel; the producer posts a non-blocking token after every
// link. The token can be stale (a previous take consumed the node
// already), so take re-checks after every wake — a spurious wake costs
// one loop iteration, never correctness.
type spscQueue struct {
	head   *spscNode // consumer-owned; head.next is the front
	tail   *spscNode // producer-owned
	notify chan struct{}
}

func newSpscQueue() *spscQueue {
	d := &spscNode{}
	return &spscQueue{head: d, tail: d, notify: make(chan struct{}, 1)}
}

// put enqueues m. Producer side only.
func (q *spscQueue) put(m rmsg) {
	n := &spscNode{msg: m}
	q.tail.next.Store(n)
	q.tail = n
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// poll dequeues the front message without blocking; ok is false when
// the queue is empty. Consumer side only.
func (q *spscQueue) poll() (m rmsg, ok bool) {
	n := q.head.next.Load()
	if n == nil {
		return rmsg{}, false
	}
	m = n.msg
	n.msg = rmsg{} // drop the payload reference from the retired node
	q.head = n
	return m, true
}

// empty reports whether the queue holds no message. Called by the
// deadlock proof while the consumer is parked; the consumer's head
// write happened before it parked under the same mutex.
func (q *spscQueue) empty() bool { return q.head.next.Load() == nil }

// take dequeues the front message, parking until one arrives.
// Consumer side only.
func (q *spscQueue) take() rmsg {
	for {
		if m, ok := q.poll(); ok {
			return m
		}
		<-q.notify
	}
}

// drainCount empties the queue and returns how many messages it held.
// Only called after the run's goroutines have all joined.
func (q *spscQueue) drainCount() int {
	n := 0
	for {
		if _, ok := q.poll(); !ok {
			return n
		}
		n++
	}
}
