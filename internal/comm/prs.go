package comm

import "fmt"

// PRSAlgorithm selects how the vector prefix-reduction-sum is computed
// (Section 5.1). The paper cites two algorithms from [1, 6]: a direct
// algorithm, best for few processors or short vectors, and a split
// algorithm whose bandwidth term does not grow with the processor
// count, best for large vectors on many processors.
type PRSAlgorithm int

const (
	// PRSAuto applies the paper's selection rule: the direct algorithm
	// if the group has at most 4 members or the vector is shorter than
	// the group, the split algorithm otherwise (Section 7, "Vector
	// Prefix-Reduction-Sum").
	PRSAuto PRSAlgorithm = iota
	// PRSDirect exchanges whole vectors in a recursive-doubling scan:
	// O(log P) start-ups but a O(mu*M*log P) bandwidth term.
	PRSDirect
	// PRSSplit transposes the vector so every member combines one
	// M/P-sized piece locally, then sends each member its prefix and
	// total pieces back: a O(mu*M) bandwidth term at the price of
	// O(P) start-ups. (The paper's split algorithm [6] achieves
	// O(tau*log P + mu*M); under this emulator's sender-occupancy
	// model the transpose variant is the faithful analogue — it keeps
	// the property that decides the paper's experiments, namely that
	// the bandwidth term stops growing with P.)
	PRSSplit
)

func (a PRSAlgorithm) String() string {
	switch a {
	case PRSAuto:
		return "auto"
	case PRSDirect:
		return "direct"
	case PRSSplit:
		return "split"
	}
	return fmt.Sprintf("PRSAlgorithm(%d)", int(a))
}

// PrefixReductionSum performs the combined vector prefix-sum and
// reduction-sum of Section 5.1 over the group: with V_i the vector
// passed by group member i,
//
//	prefix[j] = sum_{k < me} V_k[j]   (exclusive prefix sum)
//	total[j]  = sum_{all k} V_k[j]    (reduction sum)
//
// Both result vectors are returned to every member. vec is not
// modified. All members must pass vectors of the same length and the
// same algorithm choice.
func (g Group) PrefixReductionSum(vec []int, algo PRSAlgorithm) (prefix, total []int) {
	n := len(g.ranks)
	if n == 1 {
		return make([]int, len(vec)), cloneInts(vec)
	}
	if algo == PRSAuto {
		algo = g.pickPRS(len(vec))
	}
	switch algo {
	case PRSDirect:
		return g.prsDirect(vec)
	case PRSSplit:
		return g.prsSplit(vec)
	default:
		panic(fmt.Sprintf("comm: unknown PRS algorithm %d", int(algo)))
	}
}

// pickPRS implements the auto rule. The paper's rule (direct if P <= 4
// or M < P, else split) assumed the split algorithm of reference [6];
// under this emulator's sender-occupancy model the split variant is
// transpose-based with a 2*tau*P start-up term, so the auto rule keeps
// the paper's small-machine/short-vector shortcut and otherwise picks
// the variant with the smaller modelled cost.
func (g Group) pickPRS(m int) PRSAlgorithm {
	n := len(g.ranks)
	if n <= 4 || m < n {
		return PRSDirect
	}
	prm := g.p.Params()
	lg := float64(ceilLog2(n))
	direct := 2 * lg * (prm.Tau + prm.Mu*float64(m))
	split := 2*float64(n-1)*prm.Tau + 3*prm.Mu*float64(m)
	if split < direct {
		return PRSSplit
	}
	return PRSDirect
}

// prsDirect: recursive-doubling exclusive scan (works for any group
// size), followed by a binomial broadcast of the total from the last
// member. Cost about 2 log P start-ups and 2*mu*M*log P transfer.
func (g Group) prsDirect(vec []int) (prefix, total []int) {
	n := len(g.ranks)
	m := len(vec)
	prefix = make([]int, m)
	acc := cloneInts(vec) // inclusive prefix of my leading group segment

	for k, d := 0, 1; d < n; k, d = k+1, d*2 {
		if g.me+d < n {
			g.send(g.ranks[g.me+d], tagScan+k, cloneInts(acc), m)
		}
		if g.me-d >= 0 {
			payload, _ := g.recv(g.ranks[g.me-d], tagScan+k)
			part := payload.([]int)
			g.p.Charge(2 * m) // add into prefix and into acc
			for j := 0; j < m; j++ {
				prefix[j] += part[j]
				acc[j] += part[j]
			}
		}
	}
	// The last member's inclusive accumulation is the reduction sum.
	if g.me == n-1 {
		total = g.Bcast(n-1, acc)
	} else {
		total = g.Bcast(n-1, nil)
	}
	return prefix, total
}

// pieceBounds returns the [lo, hi) range of vector elements assigned to
// piece i when a length-m vector is split over n pieces as evenly as
// possible.
func pieceBounds(i, n, m int) (lo, hi int) {
	base, rem := m/n, m%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// prsSplit: transpose-combine-transpose.
//
//  1. Split vec into P nearly equal pieces; member j receives piece j
//     from everyone (all-to-all over a linear permutation schedule).
//  2. Member j locally computes, for its piece, the exclusive prefix
//     contribution destined to each member and the piece total.
//  3. Each member receives its prefix piece and the total piece from
//     every piece owner and reassembles the two result vectors.
//
// Per member: about 2P start-ups and 3*mu*M words moved — the
// bandwidth term is independent of P, which is what lets split win on
// long vectors (Section 7).
func (g Group) prsSplit(vec []int) (prefix, total []int) {
	n := len(g.ranks)
	m := len(vec)

	// Phase 1: send piece j of my vector to member j.
	sendPieces := make([][]int, n)
	for j := 0; j < n; j++ {
		lo, hi := pieceBounds(j, n, m)
		sendPieces[j] = cloneInts(vec[lo:hi])
	}
	g.p.Charge(m) // composing the pieces
	rows := AlltoallV(g, sendPieces, 1)

	// Phase 2: rows[i] is member i's values for my piece. Compute the
	// per-member exclusive prefixes and the piece total.
	lo, hi := pieceBounds(g.me, n, m)
	plen := hi - lo
	prefixPieces := make([][]int, n)
	running := make([]int, plen)
	for i := 0; i < n; i++ {
		prefixPieces[i] = cloneInts(running)
		g.p.Charge(plen)
		for j := 0; j < plen; j++ {
			running[j] += rows[i][j]
		}
	}
	// running now holds the piece total.

	// Phase 3: return to member i its prefix piece together with the
	// shared total piece.
	back := make([][]int, n)
	for i := 0; i < n; i++ {
		msg := make([]int, 0, 2*plen)
		msg = append(msg, prefixPieces[i]...)
		msg = append(msg, running...)
		back[i] = msg
	}
	g.p.Charge(2 * plen * n) // composing the return messages
	got := AlltoallV(g, back, 1)

	prefix = make([]int, m)
	total = make([]int, m)
	for i := 0; i < n; i++ {
		plo, phi := pieceBounds(i, n, m)
		w := phi - plo
		copy(prefix[plo:phi], got[i][:w])
		copy(total[plo:phi], got[i][w:])
	}
	g.p.Charge(2 * m) // reassembly
	return prefix, total
}
