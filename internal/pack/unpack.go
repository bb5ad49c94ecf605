package pack

import (
	"errors"
	"fmt"
	"slices"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// UnpackResult is the outcome of Unpack on one processor.
type UnpackResult[T any] struct {
	// A is this processor's local portion of the result array, in
	// local row-major order, conformable with the mask.
	A []T
	// Ranking is the ranking-stage result.
	Ranking *ranking.Result
}

// reqSeg is a segment of consecutive ranks, Base to Base+Count-1 (two
// machine words): a PACK message's header, and UNPACK's request "send
// me the Count vector elements starting at global rank Base". Under the
// simple storage scheme a request is charged as Count single-rank
// requests of one word each.
type reqSeg struct {
	Base  int
	Count int
}

// Unpack scatters the distributed input vector into a new array shaped
// like the mask: selected positions receive the vector elements in
// array element order, unselected positions receive the field array
// value. v is the processor's portion of the input vector, nPrime its
// global length (the paper's N', which must be at least the number of
// selected elements); m and field are the local mask and field arrays.
// The input vector is block-distributed by default and block-cyclic
// with Options.VectorW otherwise.
//
// UNPACK is a read operation: no processor knows in advance who needs
// its vector elements, so the redistribution stage uses two-phase
// communication — requests travel to the vector owners, data travels
// back (Section 4.2).
func Unpack[T any](p transport.Endpoint, l *dist.Layout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	if len(m) != l.LocalSize() || len(field) != l.LocalSize() {
		return nil, fmt.Errorf("unpack: local mask %d / field %d, layout needs %d", len(m), len(field), l.LocalSize())
	}
	switch opt.Scheme {
	case SchemeSSS, SchemeCSS:
	case SchemeCMS:
		return nil, errUnpackCMS
	default:
		return nil, fmt.Errorf("unpack: unknown scheme %v", opt.Scheme)
	}
	vec, err := dist.NewVectorDist(nPrime, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, distribution of N'=%d gives %d", len(v), nPrime, want)
	}
	pl, cs, err := callPlan(p, l, mask.Bits(m), opt, nPrime)
	if err != nil {
		return nil, err
	}
	return execUnpackPlan(p, pl, v, field, cs), nil
}

// errUnpackCMS rejects the compact message scheme, which names a PACK
// message encoding.
var errUnpackCMS = errors.New("unpack: the compact message scheme applies to PACK only (requests are already compact under CSS)")

// execUnpackPlan executes a plan as UNPACK, for every call, under the
// charge policy cs: the requests of requestSegments travel to the
// vector owners, the owners serve them, the replies travel back, and
// after the field-array transfer placeReplies' bitset walk places them.
// The placement is charged after it: for cold CSS the paper's rescan
// per segment, grouped by owner as the replies arrive; for cold SSS a
// record read and a datum write per element, owner by owner; for a plan
// two header words per segment and one op per datum.
func execUnpackPlan[T any](p transport.Endpoint, pl *Plan, v, field []T, cs *coldScan) *UnpackResult[T] {
	rnk, vec, counts := pl.rnk, pl.vec, pl.counts
	reqs, ops := requestSegments(p, rnk, vec, counts, cs)
	n := vec.P
	words, segs := make([]int, n), 0
	for dst := range words {
		words[dst] = 2 * counts[dst] // a (base rank, count) header per segment
		if cs.records() {
			words[dst] = counts[n+dst] // a rank per element
		}
		segs += counts[dst]
	}
	world := comm.World(p)
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, words, pl.opt.A2A)
	p.SetPhase(prev)
	replies, replyWords := serveVecRequests(p, vec, v, gotReqs, cs)
	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVW(world, replies, replyWords, pl.opt.A2A)
	p.SetPhase(prev)
	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(len(field)) // the local field-array transfer pass
	placeReplies(res.A, pl.sel, rnk, vec, p.Rank(), v, gotData)
	switch {
	case cs == nil:
		p.Charge(2*segs + rnk.LocalTrue) // per segment: header read + bulk word copy
	case cs.records():
		for src := range n {
			p.Charge(2 * counts[n+src]) // read record, write datum
		}
	default:
		for _, list := range ops {
			for _, c := range list {
				p.Charge(c)
			}
		}
	}
	return res
}

// requestSegments cuts UNPACK's requests: one (base rank, count)
// segment per forEachRankRun piece, listed per vector owner in local
// order; counts is segmentCounts(rnk, vec). The charge policy cs picks
// the charges:
//   - cold SSS: one rank resolve and request write per record, once at
//     the end;
//   - cold CSS: the counter-array check, then each request header as it
//     is written; it also returns, in the same per-owner lists, the
//     charge of the rescan that will place each segment (scanLen up to
//     the segment's last element, plus one write per element), so that
//     execUnpackPlan can book them in the order the paper's placement
//     loop visits the replies;
//   - a plan (cs nil): the check and the headers once.
func requestSegments(p transport.Endpoint, rnk *ranking.Result, vec dist.VectorDist, counts []int, cs *coldScan) (reqs [][]reqSeg, ops [][]int) {
	n := vec.P
	reqs = make([][]reqSeg, n)
	carve(reqs, counts[:n])
	scans := cs != nil && !cs.records() // the compact storage scheme
	if scans {
		ops = make([][]int, n)
		carve(ops, counts[:n])
		p.Charge(len(rnk.PSc)) // check the counter array, one read per slice
	}
	segs := 0
	forEachRankRun(rnk, vec, func(slice, dst, base, cnt int) {
		reqs[dst] = append(reqs[dst], reqSeg{Base: base, Count: cnt})
		segs++
		if scans {
			ops[dst] = append(ops[dst], cs.scanLen(slice, base-rnk.PSf[slice]+cnt, rnk.PSc[slice])+cnt)
			p.Charge(2) // request segment header
		}
	})
	switch {
	case cs == nil:
		p.Charge(len(rnk.PSc) + 2*segs) // counter-array check + request headers
	case cs.records():
		p.Charge(2 * rnk.LocalTrue) // resolve rank, write request
	}
	return reqs, ops
}

// placeReplies writes the replies to a's selected positions: one walk
// over sel in local order, which places each stretch of consecutive
// segments from one peer as one run of that peer's reply (ranks rise
// with local offset, so a reply's runs come in local order). A segment
// that rank me owns is placed straight from v, its local vector
// portion, at the segment's local offset; me's own reply carries no
// data. Each peer's reply goes back to the message pool once placed.
func placeReplies[T any](a []T, sel []uint64, rnk *ranking.Result, vec dist.VectorDist, me int, v []T, gotData [][]T) {
	off := make([]int, len(gotData))
	wi, word := -1, uint64(0)
	src, run := 0, 0
	flush := func() {
		data := gotData[src][off[src] : off[src]+run]
		wi, word = placeBits(a, sel, wi, word, data)
		off[src] += run
		run = 0
	}
	self := vec.Cursor()
	forEachRankRun(rnk, vec, func(_, owner, base, cnt int) {
		if owner != src && run > 0 {
			flush()
		}
		if owner == me {
			_, lo, _ := self.Seek(base)
			wi, word = placeBits(a, sel, wi, word, v[lo:lo+cnt])
			return
		}
		src = owner
		run += cnt
	})
	if run > 0 {
		flush()
	}
	for src, data := range gotData {
		if src != me {
			putBuf(data)
		}
	}
}

// serveVecRequests answers the owner side of UNPACK's two-phase
// exchange: for every received request segment, the owner copies the
// requested run out of its local vector portion into the requester's
// reply, a pooled buffer of exactly the requested length, and words[src]
// is that length. The owner's own requests are charged alike, but their
// reply stays empty: the owner places those runs from v itself, and the
// reply still travels at its full word count. Every call serves the same
// runs; a served request costs one header read plus one op per copied
// word, except under cold SSS, where each element is a single-rank
// request of its own (two ops).
func serveVecRequests[T any](p transport.Endpoint, vec dist.VectorDist, v []T, gotReqs [][]reqSeg, cs *coldScan) (replies [][]T, words []int) {
	replies = make([][]T, len(gotReqs))
	words = make([]int, len(gotReqs))
	me := p.Rank()
	cur := vec.Cursor()
	for src, list := range gotReqs {
		for _, rq := range list {
			words[src] += rq.Count
			if !cs.records() {
				p.Charge(1 + rq.Count) // read request, copy data
				continue
			}
			for range rq.Count {
				p.Charge(2) // read a single-rank request, copy its datum
			}
		}
		if src == me {
			continue
		}
		out := getBuf[T](words[src])
		k := 0
		for _, rq := range list {
			_, lo, _ := cur.Seek(rq.Base)
			k += copy(out[k:], v[lo:lo+rq.Count])
		}
		replies[src] = out
	}
	return replies, words
}
