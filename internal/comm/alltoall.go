package comm

import "sync"

// A2AOptions tunes the many-to-many personalized communication.
type A2AOptions struct {
	// SkipEmpty omits messages of zero words. The default (false)
	// transmits every round's message even when empty, which models
	// the cost of the count exchange / termination detection that a
	// receiver-oblivious exchange otherwise needs; the paper's active
	// message implementation pays an equivalent per-round handshake.
	// In SkipEmpty mode the "who sends to whom" knowledge is carried
	// by zero-cost probe messages, i.e. it is modelled as free, which
	// is what makes SkipEmpty an ablation rather than the default.
	SkipEmpty bool
	// Naive disables the linear permutation schedule: every member
	// first fires all its sends in destination order, then receives
	// in source order. It exists for the scheduling ablation.
	Naive bool
}

const tagA2AProbe = tagA2A + (1 << 18)

// AlltoallV performs many-to-many personalized communication within the
// group: send[i] is delivered to group member i, and the returned slice
// holds recv[i] = the buffer member i sent to the caller. Each element
// of T counts wordsPerElem machine words. Ownership of the send
// buffers passes to the receivers; callers must not reuse them.
//
// The default schedule is the linear permutation scheduling of
// reference [9]: in round r every member p sends to (p+r) mod P and
// receives from (p-r) mod P, so each round is a contention-free
// permutation of the virtual crossbar. Round 0 is the self message,
// which the paper's implementation also routes through the network
// rather than turning into a local copy.
func AlltoallV[T any](g Group, send [][]T, wordsPerElem int) [][]T {
	wp := wordsPool.Get().(*[]int)
	words := *wp
	if cap(words) < len(send) {
		words = make([]int, len(send))
	}
	words = words[:len(send)]
	for i, buf := range send {
		words[i] = len(buf) * wordsPerElem
	}
	recv := AlltoallVW(g, send, words, A2AOptions{})
	*wp = words
	wordsPool.Put(wp)
	return recv
}

// wordsPool recycles the per-call word-count scratch of AlltoallV.
// AlltoallVW only reads the counts while sending, so the slice can be
// returned to the pool as soon as it comes back; sync.Pool hands an
// object to at most one goroutine at a time, so concurrently running
// machines never share a scratch slice.
var wordsPool = sync.Pool{New: func() any { return new([]int) }}

// AlltoallVW is the general form of AlltoallV: words[i] gives the
// machine-word size of the message for member i (which may differ from
// a per-element multiple, e.g. for the compact message scheme's
// segment-encoded buffers). A message is considered empty, for
// SkipEmpty purposes, when its word count is 0, whatever its buffer
// holds: a message whose data the sender delivered to itself by other
// means still travels, probes and is charged at its words.
func AlltoallVW[T any](g Group, send [][]T, words []int, opt A2AOptions) [][]T {
	n := len(g.ranks)
	if len(send) != n || len(words) != n {
		panic("comm: AlltoallVW buffer/word count != group size")
	}
	recv := make([][]T, n)

	deliver := func(srcIdx int, payload any) {
		if payload != nil {
			recv[srcIdx] = payload.([]T)
		}
	}

	// The SkipEmpty probes ride SendFree, the zero-cost out-of-band
	// modelling channel, which the fault layer never injects into —
	// only the data messages go through the reliable transport.
	if opt.Naive {
		for i := 0; i < n; i++ {
			if opt.SkipEmpty {
				g.p.SendFree(g.ranks[i], tagA2AProbe, words[i] > 0)
				if words[i] == 0 {
					continue
				}
			}
			g.send(g.ranks[i], tagA2A, send[i], words[i])
		}
		for i := 0; i < n; i++ {
			if opt.SkipEmpty {
				probe, _ := g.p.Recv(g.ranks[i], tagA2AProbe)
				if !probe.(bool) {
					continue
				}
			}
			payload, _ := g.recv(g.ranks[i], tagA2A)
			deliver(i, payload)
		}
		return recv
	}

	for r := 0; r < n; r++ {
		dst := (g.me + r) % n
		src := (g.me - r + n) % n
		if opt.SkipEmpty {
			g.p.SendFree(g.ranks[dst], tagA2AProbe+r, words[dst] > 0)
			if words[dst] > 0 {
				g.send(g.ranks[dst], tagA2A+r, send[dst], words[dst])
			}
			probe, _ := g.p.Recv(g.ranks[src], tagA2AProbe+r)
			if probe.(bool) {
				payload, _ := g.recv(g.ranks[src], tagA2A+r)
				deliver(src, payload)
			}
			continue
		}
		g.send(g.ranks[dst], tagA2A+r, send[dst], words[dst])
		payload, _ := g.recv(g.ranks[src], tagA2A+r)
		deliver(src, payload)
	}
	return recv
}
