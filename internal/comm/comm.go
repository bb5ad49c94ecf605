// Package comm provides the communication primitives the paper's
// algorithms are built from, layered over the pluggable transport
// (internal/transport — the sim machine emulator or the real
// shared-memory backend):
//
//   - process groups (sub-communicators along one dimension of the
//     logical processor grid),
//   - barrier, broadcast and gather utilities,
//   - the vector prefix-reduction-sum primitive of Section 5.1 in both
//     a direct and a split variant plus the paper's selection rule,
//   - many-to-many personalized communication (all-to-all-v) with the
//     linear permutation scheduling of reference [9].
//
// All collectives must be called by every member of the group, in the
// same program order, exactly as in an SPMD message-passing program.
package comm

import (
	"fmt"

	"packunpack/internal/transport"
)

// Tag bases for the collectives. Successive calls to the same
// collective by the same group are kept apart by the FIFO ordering of
// (source, tag) message streams; different collectives use disjoint tag
// ranges so they can never cross-match.
const (
	tagBarrier = 1 << 20
	tagBcast   = 2 << 20
	tagScan    = 3 << 20
	tagSplit1  = 4 << 20
	tagSplit2  = 5 << 20
	tagA2A     = 6 << 20
	tagGather  = 7 << 20
)

// Group is an ordered set of processors that communicate collectively,
// bound to the calling processor. Index i of the group is the group
// rank; prefix operations accumulate in group-rank order.
type Group struct {
	p     transport.Endpoint
	f     transport.FaultEndpoint // p under a fault plan, else nil (reliable.go)
	ranks []int
	me    int // my index within ranks
}

// NewGroup builds the group view for processor p. ranks lists the
// global ranks of the members in group order and must contain
// p.Rank() exactly once.
func NewGroup(p transport.Endpoint, ranks []int) (Group, error) {
	me := -1
	for i, r := range ranks {
		if r == p.Rank() {
			if me != -1 {
				return Group{}, fmt.Errorf("comm: rank %d listed twice in group", r)
			}
			me = i
		}
	}
	if me == -1 {
		return Group{}, fmt.Errorf("comm: rank %d not a member of group %v", p.Rank(), ranks)
	}
	cp := make([]int, len(ranks))
	copy(cp, ranks)
	g := Group{p: p, ranks: cp, me: me}
	if f, ok := p.(transport.FaultEndpoint); ok && f.Faults() != nil {
		g.f = f
	}
	return g, nil
}

// World returns the group of all processors in machine order.
func World(p transport.Endpoint) Group {
	ranks := make([]int, p.NProcs())
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(p, ranks)
	if err != nil {
		panic(err) // unreachable: p.Rank() is always in [0, NProcs)
	}
	return g
}

// Size returns the number of group members.
func (g Group) Size() int { return len(g.ranks) }

// Index returns the caller's group rank.
func (g Group) Index() int { return g.me }

// Ranks returns the global ranks of the members in group order.
func (g Group) Ranks() []int { return g.ranks }

// Proc returns the bound processor endpoint.
func (g Group) Proc() transport.Endpoint { return g.p }

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// Barrier synchronizes the group with the dissemination algorithm:
// ceil(log2 P) rounds of zero-length token exchanges. As a side effect
// it pulls every member's virtual clock up to (at least) the time the
// slowest member entered, which is how the emulator separates the
// timed stages of an algorithm.
func (g Group) Barrier() {
	n := len(g.ranks)
	for k, d := 0, 1; d < n; k, d = k+1, d*2 {
		// d < n is a loop invariant, so no %n reduction of d is needed
		// before the subtraction; the former (g.me-d%n+n)%n expression
		// only computed the intended source because of that invariant
		// (% binds tighter than -), not by design.
		dst := g.ranks[(g.me+d)%n]
		src := g.ranks[(g.me-d+n)%n]
		g.send(dst, tagBarrier+k, nil, 0)
		g.recv(src, tagBarrier+k)
	}
}

// Bcast broadcasts vec (in place) from the member with group rank root
// to every member, using a binomial tree. Non-root members receive
// into a freshly allocated slice returned to all callers for symmetry.
func (g Group) Bcast(root int, vec []int) []int {
	n := len(g.ranks)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("comm: Bcast root %d out of range [0,%d)", root, n))
	}
	rel := (g.me - root + n) % n
	// Receive once from the parent (unless root), then forward down
	// the binomial tree.
	mask := 1
	if rel != 0 {
		// Find the lowest set bit of rel: the round we receive in.
		for rel&mask == 0 {
			mask <<= 1
		}
		parent := g.ranks[((rel-mask)+root)%n]
		payload, _ := g.recv(parent, tagBcast)
		if payload != nil {
			vec = payload.([]int)
		} else {
			vec = nil
		}
	} else {
		mask = 1 << ceilLog2(n)
	}
	// Forward to children: rel+m for each m below my receive mask.
	// Each child gets a private copy so that receivers are free to
	// mutate the broadcast result (the ranking algorithm does). The
	// clone preserves nil-ness: a nil vec at the root must come back
	// nil at every member, not as a freshly allocated empty slice
	// ("returned to all callers for symmetry").
	for m := mask >> 1; m >= 1; m >>= 1 {
		childRel := rel + m
		if childRel < n {
			child := g.ranks[(childRel+root)%n]
			g.send(child, tagBcast, cloneIntsSameNil(vec), len(vec))
		}
	}
	return vec
}

// cloneInts copies a slice; collectives never hand a caller's buffer to
// the network, because the receiving goroutine would otherwise share
// memory with the sender.
func cloneInts(v []int) []int {
	out := make([]int, len(v))
	copy(out, v)
	return out
}

// cloneIntsSameNil is cloneInts except that a nil input clones to nil
// (cloneInts allocates a non-nil empty slice, which broke Bcast's
// symmetry contract for nil vectors).
func cloneIntsSameNil(v []int) []int {
	if v == nil {
		return nil
	}
	return cloneInts(v)
}

// GatherV collects each member's variable-length contribution at the
// member with group rank root, which receives them in group order.
// Non-root members return nil. Intended for result assembly and test
// harnesses rather than for the timed algorithm path.
func GatherV[T any](g Group, root int, contrib []T, wordsPerElem int) [][]T {
	n := len(g.ranks)
	if g.me != root {
		g.send(g.ranks[root], tagGather, contrib, len(contrib)*wordsPerElem)
		return nil
	}
	out := make([][]T, n)
	for i := 0; i < n; i++ {
		if i == root {
			// Remote rows are owned by the result (ownership of a sent
			// buffer passes to the receiver), but the root's own row must
			// be cloned: handing the caller's live contrib to the result
			// would let later mutations of that buffer corrupt the
			// gathered row, violating the no-aliasing policy of the
			// collectives.
			if contrib != nil {
				out[i] = append(make([]T, 0, len(contrib)), contrib...)
			}
			continue
		}
		payload, _ := g.recv(g.ranks[i], tagGather)
		if payload != nil {
			out[i] = payload.([]T)
		}
	}
	return out
}
