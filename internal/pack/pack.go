// Package pack implements the parallel PACK and UNPACK algorithms of
// Section 4 of the paper on top of the ranking stage: ranking first
// (package ranking), then a redistribution stage built on many-to-many
// personalized communication (package comm).
//
// Three scheme variants are provided for PACK and two for UNPACK
// (Section 6):
//
//   - SchemeSSS, the simple storage scheme: a record is saved for every
//     selected element during the initial scan, and messages carry
//     (datum, global rank) pairs.
//   - SchemeCSS, the compact storage scheme: nothing is saved per
//     element; the slice counter array PS_c and the final base-rank
//     array PS_f are compared to regenerate ranks and destinations,
//     at the cost of a second slice scan. Messages still carry
//     (datum, rank) pairs.
//   - SchemeCMS, the compact message scheme: CSS storage plus
//     run-length message encoding — consecutive ranks per destination
//     are shipped as segments (base rank, count, datum...).
//
// The result vector defaults to the paper's block distribution, but any
// block-cyclic vector distribution is supported (Options.VectorW);
// smaller vector blocks fragment the compact message scheme's segments
// exactly as Section 6.2 predicts. PackVector implements the Fortran 90
// optional VECTOR argument (result padded from a vector of length
// >= the selected count).
package pack

import (
	"fmt"
	"math/bits"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// Scheme selects the storage/message scheme of Section 6.
type Scheme int

const (
	// SchemeSSS is the simple storage scheme.
	SchemeSSS Scheme = iota
	// SchemeCSS is the compact storage scheme.
	SchemeCSS
	// SchemeCMS is the compact message scheme (PACK only; UNPACK
	// requests are already run-length encoded under CSS).
	SchemeCMS
)

func (s Scheme) String() string {
	switch s {
	case SchemeSSS:
		return "SSS"
	case SchemeCSS:
		return "CSS"
	case SchemeCMS:
		return "CMS"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// PhaseM2M is the sim phase name under which the many-to-many
// personalized communication of the redistribution stage is booked.
const PhaseM2M = "m2m"

// Options configure a PACK or UNPACK invocation. The zero value is the
// simple storage scheme with the paper's default algorithm choices.
type Options struct {
	Scheme Scheme
	// PRS picks the prefix-reduction-sum variant used by the ranking
	// stage (default: the paper's auto rule).
	PRS comm.PRSAlgorithm
	// VectorW is the block size of the result vector's (PACK) or the
	// input vector's (UNPACK) block-cyclic distribution. 0 selects
	// the paper's default block partitioning.
	VectorW int
	// WholeSliceScan selects the second scanning method of Section
	// 6.1 (scan the whole slice instead of stopping once all packed
	// elements of the slice are collected). The paper measured the
	// stop-early method as slightly better; the flag exists for the
	// ablation benchmark.
	WholeSliceScan bool
	// A2A tunes the many-to-many personalized communication.
	A2A comm.A2AOptions
	// SeparatePrefixReduce disables the combined prefix-reduction-sum
	// primitive (ablation; see ranking.Options).
	SeparatePrefixReduce bool
	// Plans enables transparent plan caching: calls fingerprint the
	// (layout, mask, options) configuration, compile a plan
	// on the first sighting, and execute the cached plan on repeats,
	// skipping the ranking stage entirely (see plan.go). The cache may
	// be shared across machines; nil keeps the per-call paths.
	Plans *PlanCache
}

func (o Options) rankingOptions(keepRecords bool) ranking.Options {
	return ranking.Options{
		PRS:                  o.PRS,
		KeepRecords:          keepRecords,
		SeparatePrefixReduce: o.SeparatePrefixReduce,
	}
}

// pair is the (datum value, global rank) message unit of the simple
// storage and compact storage schemes (two machine words).
type pair[T any] struct {
	Datum T
	Rank  int
}

// segBatch is the compact message scheme's message to one peer: a
// (base rank, count) header per segment, in local order, and the
// segments' data back to back in one buffer. The ranks of a segment's
// data are Base, Base+1, ..., so only the two header words travel per
// segment. Data comes from the message pool (pool.go), and the
// receiver returns it once decomposed. The self message carries its
// headers and no data: composeSegments collected that data straight
// into V.
type segBatch[T any] struct {
	Segs []reqSeg
	Data []T
}

// exchangeSegments runs the compact message scheme's many-to-many
// exchange and decomposes the received segments into v, the local
// result portion: each segment costs its two header words plus one op
// per datum. counts is the segmentCounts the messages were composed
// from, and the word counts come from it, so the self message, which
// carries no data, is sent and charged at its full size. Its segments
// are charged but not copied: they are in v already. Cold and planned
// PACK share it, so both send the same messages.
func exchangeSegments[T any](p transport.Endpoint, send [][]segBatch[T], counts []int, vec dist.VectorDist, v []T, a2a comm.A2AOptions) {
	n := vec.P
	words := make([]int, n)
	for dst := range words {
		words[dst] = 2*counts[dst] + counts[n+dst]
	}
	prev := p.SetPhase(PhaseM2M)
	recv := comm.AlltoallVW(comm.World(p), send, words, a2a)
	p.SetPhase(prev)
	me := p.Rank()
	cur := vec.Cursor()
	for src, msg := range recv {
		for _, b := range msg {
			if src == me {
				for _, s := range b.Segs {
					p.Charge(2 + s.Count) // header + data decomposition
				}
				continue
			}
			data := b.Data
			for _, s := range b.Segs {
				p.Charge(2 + s.Count) // header + data decomposition
				_, lo, _ := cur.Seek(s.Base)
				copy(v[lo:lo+s.Count], data[:s.Count])
				data = data[s.Count:]
			}
			putBuf(b.Data)
		}
	}
}

// Result is the outcome of Pack on one processor.
type Result[T any] struct {
	// V is this processor's portion of the packed result vector.
	V []T
	// Vec describes the distribution of the result vector.
	Vec dist.VectorDist
	// Ranking is the ranking-stage result (Size, base ranks, ...).
	Ranking *ranking.Result
}

// Pack gathers the selected elements of the distributed array into a
// distributed result vector of exactly Size elements. a and m are the
// calling processor's local portions (local row-major order) of the
// input array and the mask; every processor of the machine must call
// Pack with the same layout and options.
func Pack[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, opt Options) (*Result[T], error) {
	return packImpl(p, l, a, m, opt, nil, -1)
}

// PackVector is PACK with the Fortran 90 optional VECTOR argument: the
// result vector has the length of the pad vector (global length nVec,
// local portion pad under the same distribution the result will use),
// its first Size elements are the selected elements, and the remaining
// positions keep the pad vector's values. nVec must be at least the
// number of selected elements.
func PackVector[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, pad []T, nVec int, opt Options) (*Result[T], error) {
	if nVec < 0 {
		return nil, fmt.Errorf("pack: negative VECTOR length %d", nVec)
	}
	return packImpl(p, l, a, m, opt, pad, nVec)
}

func packImpl[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, opt Options, pad []T, nVec int) (*Result[T], error) {
	if len(a) != l.LocalSize() || len(m) != l.LocalSize() {
		return nil, fmt.Errorf("pack: local array %d / mask %d, layout needs %d", len(a), len(m), l.LocalSize())
	}
	sel := mask.Bits(m)
	if opt.Plans != nil {
		return packPlanned(p, l, a, sel, opt, pad, nVec)
	}
	rnk, err := ranking.RankBits(p, l, sel, opt.rankingOptions(opt.Scheme == SchemeSSS))
	if err != nil {
		return nil, err
	}
	size := rnk.Size
	if nVec >= 0 {
		if size > nVec {
			return nil, fmt.Errorf("pack: VECTOR too short: %d < Size=%d", nVec, size)
		}
		size = nVec
	}
	vec, err := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	res := &Result[T]{Vec: vec, Ranking: rnk, V: make([]T, vec.LocalLen(p.Rank()))}
	if nVec >= 0 {
		if len(pad) != len(res.V) {
			return nil, fmt.Errorf("pack: local VECTOR portion has %d elements, distribution gives %d", len(pad), len(res.V))
		}
		copy(res.V, pad)
		p.Charge(len(pad)) // initialize the result from the pad vector
	}
	cs := &coldScan{w0: l.Dims[0].W, sel: sel, whole: opt.WholeSliceScan}

	switch opt.Scheme {
	case SchemeSSS, SchemeCSS:
		send := make([][]pair[T], p.NProcs())
		if opt.Scheme == SchemeSSS {
			composePairsSSS(p, a, rnk, vec, send)
		} else {
			composePairsCSS(p, cs, a, rnk, vec, send)
		}
		prev := p.SetPhase(PhaseM2M)
		recv := comm.AlltoallVOpt(comm.World(p), send, 2, opt.A2A)
		p.SetPhase(prev)
		cur := vec.Cursor()
		for _, buf := range recv {
			p.Charge(2 * len(buf)) // message decomposition
			for _, pr := range buf {
				_, lo, _ := cur.Seek(pr.Rank)
				res.V[lo] = pr.Datum
			}
		}
	case SchemeCMS:
		counts := segmentCounts(rnk, vec)
		exchangeSegments(p, composeSegments(p, rnk, vec, counts, sel, a, res.V, cs), counts, vec, res.V, opt.A2A)
	default:
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	return res, nil
}

// carve pre-sizes per-destination lists to their exact final lengths:
// one backing arena, subsliced per destination with zero length and
// capacity counts[dst], so the append-based compose loops fill without
// ever reallocating. Destinations with no elements stay nil. The
// sizing walks that produce counts are host bookkeeping, not part of
// the paper's cost model — nothing here is Charged.
func carve[E any](lists [][]E, counts []int) {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return
	}
	arena := make([]E, total)
	off := 0
	for dst, c := range counts {
		if c == 0 {
			continue
		}
		lists[dst] = arena[off : off : off+c]
		off += c
	}
}

// composePairsSSS builds the per-destination (datum, rank) messages
// from the records saved by the simple storage scheme.
func composePairsSSS[T any](p transport.Endpoint, a []T, rnk *ranking.Result, vec dist.VectorDist, send [][]pair[T]) {
	counts := make([]int, len(send))
	cur := vec.Cursor()
	for _, rec := range rnk.Records {
		dst, _, _ := cur.Seek(rnk.RankOf(rec))
		counts[dst]++
	}
	carve(send, counts)
	for _, rec := range rnk.Records {
		r := rnk.RankOf(rec)
		dst, _, _ := cur.Seek(r)
		send[dst] = append(send[dst], pair[T]{Datum: a[rec.Off], Rank: r})
	}
	p.Charge(2 * len(rnk.Records)) // write datum and rank per element
}

// coldScan is what an unplanned compact-scheme call needs to charge the
// paper's second slice scan (§6.1): the slice width W_0, the call's
// mask bitset and the scan policy. A planned call passes nil and
// charges its bulk-copy formula instead.
type coldScan struct {
	w0    int
	sel   []uint64
	whole bool
}

// scanLen is the charged length of the scan that finds the first upto
// of a slice's count selected elements: W_0 under WholeSliceScan, and
// otherwise the slice's elements up to and including the upto-th
// selected one. That is the slice's last selected element when upto ==
// count, read with bits.Len64 from the slice's last words; a segment
// that a vector block boundary cuts off earlier selects its last
// element within the slice's words.
func (cs *coldScan) scanLen(slice, upto, count int) int {
	if cs.whole {
		return cs.w0
	}
	lo := slice * cs.w0
	if upto == count {
		return lastSet(cs.sel, lo+cs.w0) + 1 - lo
	}
	return nthSet(cs.sel, lo, upto) + 1 - lo
}

// lastSet returns the offset of the last set bit of sel below hi; one
// must exist.
func lastSet(sel []uint64, hi int) int {
	wi := (hi - 1) >> 6
	word := sel[wi] & (^uint64(0) >> (63 - (hi-1)&63))
	for word == 0 {
		wi--
		word = sel[wi]
	}
	return wi<<6 + bits.Len64(word) - 1
}

// nthSet returns the offset of the k-th (k >= 1) set bit of sel at or
// after lo; it must exist.
func nthSet(sel []uint64, lo, k int) int {
	wi := lo >> 6
	word := sel[wi] &^ (1<<(lo&63) - 1)
	for c := bits.OnesCount64(word); c < k; c = bits.OnesCount64(word) {
		k -= c
		wi++
		word = sel[wi]
	}
	for ; k > 1; k-- {
		word &= word - 1
	}
	return wi<<6 + bits.TrailingZeros64(word)
}

// forEachRankRun walks the segments of the compact schemes: for every
// non-empty slice, the consecutive ranks PS_f[slice].. are split at the
// result vector's block boundaries, and fn sees one piece at a time, in
// local order: its slice, destination, base rank and count. The walk
// only reads the ranking's slice arrays, so callers may use it as an
// uncharged sizing pre-pass, and it follows the vector's blocks with a
// cursor that divides only when the walk jumps a block. Cold compose,
// cold UNPACK requests and plan execution all cut their segments here,
// which is why a planned call sends exactly the messages of a cold one.
func forEachRankRun(rnk *ranking.Result, vec dist.VectorDist, fn func(slice, dst, base, cnt int)) {
	cur := vec.Cursor()
	for slice, n := range rnk.PSc {
		r := rnk.PSf[slice]
		for end := r + n; r < end; {
			dst, _, blockEnd := cur.Seek(r)
			c := min(blockEnd, end) - r
			fn(slice, dst, r, c)
			r += c
		}
	}
}

// segmentCounts returns, per destination, the number of segments
// forEachRankRun cuts for it (counts[:P]) and the number of elements
// they hold (counts[P:]): the exact sizes of the compact schemes'
// per-destination lists and buffers. It is an uncharged sizing walk; a
// plan stores its result.
func segmentCounts(rnk *ranking.Result, vec dist.VectorDist) []int {
	n := vec.P
	counts := make([]int, 2*n)
	forEachRankRun(rnk, vec, func(_, dst, _, cnt int) {
		counts[dst]++
		counts[n+dst] += cnt
	})
	return counts
}

// composePairsCSS regenerates ranks by comparing PS_c with PS_f
// (Section 6.1) and builds (datum, rank) messages with a second slice
// scan; only slices with at least one selected element are scanned.
// The host walks the call's bitset segment by segment, and each
// non-empty slice charges its scan and datum writes, then its rank
// writes, when its first segment comes up.
func composePairsCSS[T any](p transport.Endpoint, cs *coldScan, a []T, rnk *ranking.Result, vec dist.VectorDist, send [][]pair[T]) {
	carve(send, segmentCounts(rnk, vec)[len(send):])
	p.Charge(len(rnk.PSc)) // check the counter array, one read per slice
	sel := cs.sel
	wi, word := -1, uint64(0)
	forEachRankRun(rnk, vec, func(slice, dst, base, cnt int) {
		if c := rnk.PSc[slice]; base == rnk.PSf[slice] {
			p.Charge(cs.scanLen(slice, c, c) + c) // element reads + datum writes
			p.Charge(c)                           // rank writes
		}
		out := send[dst]
		k := len(out)
		out = out[:k+cnt]
		for i := range out[k:] {
			for word == 0 {
				wi++
				word = sel[wi]
			}
			out[k+i] = pair[T]{Datum: a[wi<<6|bits.TrailingZeros64(word)], Rank: base + i}
			word &= word - 1
		}
		send[dst] = out
	})
}

// composeSegments builds the compact message scheme's messages, one
// segBatch per destination: the consecutive ranks r0..r0+n-1 of a
// slice are split at the result vector's block boundaries, and each
// piece travels as (base rank, count, data...). The smaller the
// vector's blocks, the more segments (Section 6.2). counts is
// segmentCounts(rnk, vec). Each peer's data buffer comes from the
// message pool at its exact final length, and the bitset walk fills it
// once per stretch of consecutive segments bound for that peer. A
// segment bound for the calling rank itself is collected straight into
// v, its local result portion, at the segment's local offset, and its
// batch keeps only the headers. Cold and planned PACK share it and send
// the same messages: a cold call (cs non-nil) charges the counter-array
// check, each non-empty slice's second scan and datum writes, and two
// header words per segment, in walk order; a planned call (cs nil)
// charges the bulk-copy formula once, one PS_c read per slice, two
// header words per segment and one op per datum.
func composeSegments[T any](p transport.Endpoint, rnk *ranking.Result, vec dist.VectorDist, counts []int, sel []uint64, a, v []T, cs *coldScan) [][]segBatch[T] {
	n := vec.P
	me := p.Rank()
	hdrs := make([][]reqSeg, n)
	carve(hdrs, counts[:n])
	batches := make([]segBatch[T], n)
	send := make([][]segBatch[T], n)
	for dst := range batches {
		if counts[dst] > 0 {
			batches[dst].Segs = hdrs[dst]
			if dst != me {
				batches[dst].Data = getBuf[T](counts[n+dst])[:0]
			}
			send[dst] = batches[dst : dst+1 : dst+1]
		}
	}
	if cs != nil {
		p.Charge(len(rnk.PSc)) // check the counter array, one read per slice
	}
	wi, word := -1, uint64(0)
	runDst, run, segs := 0, 0, 0
	flush := func() {
		b := &batches[runDst]
		k := len(b.Data)
		b.Data = b.Data[:k+run]
		wi, word = collectBits(b.Data[k:], a, sel, wi, word)
		run = 0
	}
	self := vec.Cursor()
	forEachRankRun(rnk, vec, func(slice, dst, base, cnt int) {
		if dst != runDst && run > 0 {
			flush()
		}
		b := &batches[dst]
		b.Segs = append(b.Segs, reqSeg{Base: base, Count: cnt})
		segs++
		if dst == me {
			_, lo, _ := self.Seek(base)
			wi, word = collectBits(v[lo:lo+cnt], a, sel, wi, word)
		} else {
			runDst = dst
			run += cnt
		}
		if cs != nil {
			if c := rnk.PSc[slice]; base == rnk.PSf[slice] {
				p.Charge(cs.scanLen(slice, c, c) + c) // element reads + datum writes
			}
			p.Charge(2) // segment header (base rank + count)
		}
	})
	if run > 0 {
		flush()
	}
	if cs == nil {
		p.Charge(len(rnk.PSc) + 2*segs + rnk.LocalTrue)
	}
	return send
}
