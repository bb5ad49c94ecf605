package pack

import (
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

// reqSeg is a compact request: "send me the Count vector elements
// starting at global rank Base" (two machine words). The simple
// storage scheme sends one single-element segment per selected element
// (its effective request size is one word, the rank; we charge one
// word accordingly).
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
	if opt.Scheme == SchemeCMS {
		return nil, fmt.Errorf("unpack: the compact message scheme applies to PACK only (requests are already compact under CSS)")
	}
	sel := mask.Bits(m)
	if opt.Plans != nil {
		return unpackPlanned(p, l, v, nPrime, sel, field, opt)
	}
	vec, err := dist.NewVectorDist(nPrime, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, distribution of N'=%d gives %d", len(v), nPrime, want)
	}

	rnk, err := ranking.RankBits(p, l, sel, opt.rankingOptions(opt.Scheme == SchemeSSS))
	if err != nil {
		return nil, err
	}
	if rnk.Size > nPrime {
		return nil, fmt.Errorf("unpack: vector too short: N'=%d < Size=%d", nPrime, rnk.Size)
	}
	if opt.Scheme != SchemeSSS {
		cs := &coldScan{w0: l.Dims[0].W, sel: sel, whole: opt.WholeSliceScan}
		return unpackCompact(p, rnk, vec, segmentCounts(rnk, vec), sel, v, field, opt.A2A, cs), nil
	}

	// ---- SSS: one single-rank request per saved record, remembering
	// which record each request serves. The lists are pre-sized to
	// their exact final lengths (uncharged host bookkeeping), so the
	// append loop never reallocates. ----
	n := p.NProcs()
	reqs := make([][]reqSeg, n)
	reqWords := make([]int, n)
	recIdx := make([][]int, n)
	counts := make([]int, n)
	cur := vec.Cursor()
	for _, rec := range rnk.Records {
		dst, _, _ := cur.Seek(rnk.RankOf(rec))
		counts[dst]++
	}
	carve(reqs, counts)
	carve(recIdx, counts)
	for ri, rec := range rnk.Records {
		r := rnk.RankOf(rec)
		dst, _, _ := cur.Seek(r)
		reqs[dst] = append(reqs[dst], reqSeg{Base: r, Count: 1})
		recIdx[dst] = append(recIdx[dst], ri)
		reqWords[dst]++ // one word per individual rank request
	}
	p.Charge(2 * len(rnk.Records)) // resolve rank, write request

	gotData := fetchRuns(p, vec, v, reqs, reqWords, opt.A2A)

	// ---- Place: field values where the mask is false, vector data
	// where it is true. The field array is copied whole and the
	// placement below overwrites every selected position. The
	// requests a rank sent itself were answered with no data, so
	// their elements are read straight from v. ----
	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(l.LocalSize()) // the local field-array transfer pass
	me := p.Rank()
	for src, data := range gotData {
		if src == me {
			self := vec.Cursor()
			for i, ri := range recIdx[src] {
				_, lo, _ := self.Seek(reqs[src][i].Base)
				res.A[rnk.Records[ri].Off] = v[lo]
			}
			p.Charge(2 * len(recIdx[src])) // read record, write datum
			continue
		}
		for i, ri := range recIdx[src] {
			res.A[rnk.Records[ri].Off] = data[i]
		}
		p.Charge(2 * len(data)) // read record, write datum
		putBuf(data)
	}
	return res, nil
}

// fetchRuns is UNPACK's two-phase redistribution: the requests travel
// to the vector owners, the owners serve them, and the replies travel
// back. gotData[src] is a peer src's reply, the requested runs back to
// back in request order; it is a pooled buffer, which the caller
// returns once placed. The reply a rank sends itself has no data (the
// caller reads its own runs from v), so gotData[p.Rank()] is nil.
func fetchRuns[T any](p transport.Endpoint, vec dist.VectorDist, v []T, reqs [][]reqSeg, words []int, a2a comm.A2AOptions) [][]T {
	world := comm.World(p)
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, words, a2a)
	p.SetPhase(prev)
	replies, replyWords := serveVecRequests(p, vec, v, gotReqs)
	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVW(world, replies, replyWords, a2a)
	p.SetPhase(prev)
	return gotData
}

// unpackCompact is the compact storage scheme's UNPACK after the
// ranking, shared by cold calls and plans: the (base rank, count)
// requests of requestSegments, the owners serving them, the field-array
// transfer, and placement of the replies by placeReplies' bitset walk;
// counts is segmentCounts(rnk, vec). A cold call (cs non-nil) charges
// the paper's placement rescan per segment, grouped by owner as the
// replies arrive; a planned call charges two header words per segment
// and one op per datum.
func unpackCompact[T any](p transport.Endpoint, rnk *ranking.Result, vec dist.VectorDist, counts []int, sel []uint64, v, field []T, a2a comm.A2AOptions, cs *coldScan) *UnpackResult[T] {
	reqs, ops := requestSegments(p, rnk, vec, counts, cs)
	words := make([]int, len(reqs))
	segs := 0
	for dst, list := range reqs {
		words[dst] = 2 * len(list)
		segs += len(list)
	}
	gotData := fetchRuns(p, vec, v, reqs, words, a2a)
	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(len(field)) // the local field-array transfer pass
	placeReplies(res.A, sel, rnk, vec, p.Rank(), v, gotData)
	if cs == nil {
		p.Charge(2*segs + rnk.LocalTrue) // per segment: header read + bulk word copy
		return res
	}
	for _, list := range ops {
		for _, n := range list {
			p.Charge(n)
		}
	}
	return res
}

// requestSegments cuts the compact storage scheme's requests: one
// (base rank, count) segment per forEachRankRun piece, listed per
// vector owner in local order; counts is segmentCounts(rnk, vec). A
// cold call (cs non-nil) charges the counter-array check and then each
// request header as it is written, and returns, in the same per-owner
// lists, the charge of the rescan that will place each segment
// (scanLen up to the segment's last element, plus one write per
// element), so that unpackCompact can book them in the order the
// paper's placement loop visits the replies. A planned call charges
// the check and the headers once.
func requestSegments(p transport.Endpoint, rnk *ranking.Result, vec dist.VectorDist, counts []int, cs *coldScan) (reqs [][]reqSeg, ops [][]int) {
	n := vec.P
	reqs = make([][]reqSeg, n)
	carve(reqs, counts[:n])
	if cs != nil {
		ops = make([][]int, n)
		carve(ops, counts[:n])
		p.Charge(len(rnk.PSc)) // check the counter array, one read per slice
	}
	segs := 0
	forEachRankRun(rnk, vec, func(slice, dst, base, cnt int) {
		reqs[dst] = append(reqs[dst], reqSeg{Base: base, Count: cnt})
		segs++
		if cs != nil {
			ops[dst] = append(ops[dst], cs.scanLen(slice, base-rnk.PSf[slice]+cnt, rnk.PSc[slice])+cnt)
			p.Charge(2) // request segment header
		}
	})
	if cs == nil {
		p.Charge(len(rnk.PSc) + 2*segs) // counter-array check + request headers
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
// reply still travels at its full word count. The planned and unplanned
// paths share this helper, so a served request costs the same (one
// header read plus one op per copied word) either way.
func serveVecRequests[T any](p transport.Endpoint, vec dist.VectorDist, v []T, gotReqs [][]reqSeg) (replies [][]T, words []int) {
	replies = make([][]T, len(gotReqs))
	words = make([]int, len(gotReqs))
	me := p.Rank()
	cur := vec.Cursor()
	for src, list := range gotReqs {
		total := 0
		for _, rq := range list {
			total += rq.Count
		}
		words[src] = total
		if src == me {
			for _, rq := range list {
				p.Charge(1 + rq.Count) // read request, copy data
			}
			continue
		}
		out := getBuf[T](total)
		k := 0
		for _, rq := range list {
			p.Charge(1 + rq.Count) // read request, copy data
			_, lo, _ := cur.Seek(rq.Base)
			k += copy(out[k:], v[lo:lo+rq.Count])
		}
		replies[src] = out
	}
	return replies, words
}
