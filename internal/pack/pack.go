// Package pack implements the parallel PACK and UNPACK algorithms of
// Section 4 of the paper on top of the ranking stage: ranking first
// (package ranking), then a redistribution stage built on many-to-many
// personalized communication (package comm).
//
// Three scheme variants are provided for PACK and two for UNPACK
// (Section 6). They differ in what a processor stores and in how its
// messages are encoded, and this package reproduces that difference in
// what it charges, not in host work: every scheme runs one host data
// path, which cuts a call's selected elements into segments of
// consecutive ranks (forEachRankRun) and sends each peer one segBatch.
//
//   - SchemeSSS, the simple storage scheme: a record is saved for every
//     selected element during the initial scan, and messages are
//     charged as (datum, global rank) pairs, two words per element.
//   - SchemeCSS, the compact storage scheme: nothing is saved per
//     element; the slice counter array PS_c and the final base-rank
//     array PS_f are compared to regenerate ranks and destinations,
//     at the cost of a second slice scan. Messages are still charged
//     as (datum, rank) pairs.
//   - SchemeCMS, the compact message scheme: CSS storage plus
//     run-length message encoding — consecutive ranks per destination
//     are charged as segments (base rank, count, datum...).
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

// known reports whether s is one of the three schemes. A cold call's
// scheme is its charge policy, so an unknown value must be rejected
// rather than run as some scheme's charges.
func (s Scheme) known() bool { return s >= SchemeSSS && s <= SchemeCMS }

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

// segBatch is a call's message to one peer under every scheme: a
// (base rank, count) header per segment, in local order, and the
// segments' data back to back in one buffer. The ranks of a segment's
// data are Base, Base+1, ..., so the host ships no rank per element,
// even where the scheme charges one (exchangeSegments). Data comes from
// the message pool (pool.go), and the receiver returns it once
// decomposed. The self message carries its headers and no data:
// composeSegments collected that data straight into V.
type segBatch[T any] struct {
	Segs []reqSeg
	Data []T
}

// exchangeSegments runs PACK's many-to-many exchange and decomposes the
// received segments into v, the local result portion. Every call sends
// the same messages; cs sets their words and decomposition charges: a
// (datum, rank) pair per element under cold SSS and CSS, and otherwise
// a two-word header per segment plus one word per datum. counts is the
// segmentCounts the messages were composed from, and the word counts
// come from it, so the self message, which carries no data, is sent and
// charged at its full size. Its segments are charged but not copied:
// they are in v already.
func exchangeSegments[T any](p transport.Endpoint, send [][]segBatch[T], counts []int, vec dist.VectorDist, v []T, a2a comm.A2AOptions, cs *coldScan) {
	n := vec.P
	words := make([]int, n)
	for dst := range words {
		words[dst] = 2*counts[dst] + counts[n+dst] // a header per segment, then the data
		if cs.pairs() {
			words[dst] = 2 * counts[n+dst] // a (datum, rank) pair per element
		}
	}
	prev := p.SetPhase(PhaseM2M)
	recv := comm.AlltoallVW(comm.World(p), send, words, a2a)
	p.SetPhase(prev)
	me := p.Rank()
	cur := vec.Cursor()
	for src, msg := range recv {
		for _, b := range msg {
			cs.chargeDecompose(p, b.Segs)
			if src == me {
				continue
			}
			data := b.Data
			for _, s := range b.Segs {
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
	if !opt.Scheme.known() {
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	pl, cs, err := callPlan(p, l, mask.Bits(m), opt, nVec)
	if err != nil {
		return nil, err
	}
	return execPackPlan(p, pl, a, pad, cs)
}

// execPackPlan executes a plan as PACK, for every call: the result
// set-up, then composeSegments and exchangeSegments under the charge
// policy cs. pad is only consulted for plans with a VECTOR length.
func execPackPlan[T any](p transport.Endpoint, pl *Plan, a, pad []T, cs *coldScan) (*Result[T], error) {
	vec := pl.vec
	res := &Result[T]{Vec: vec, Ranking: pl.rnk, V: make([]T, vec.LocalLen(p.Rank()))}
	if pl.nVec >= 0 {
		if len(pad) != len(res.V) {
			return nil, fmt.Errorf("pack: local VECTOR portion has %d elements, distribution gives %d", len(pad), len(res.V))
		}
		copy(res.V, pad)
		p.Charge(len(pad)) // initialize the result from the pad vector
	}
	exchangeSegments(p, composeSegments(p, pl.rnk, vec, pl.counts, pl.sel, a, res.V, cs), pl.counts, vec, res.V, pl.opt.A2A, cs)
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

// coldScan is an unplanned call's charge policy. Its scheme picks the
// Charge calls the call makes and the words each message is sent at;
// the host work is the same under every scheme, and scheme tests sit
// per message or per segment, never in a per-element loop. The slice
// width W_0, the call's mask bitset and the scan policy charge the
// compact storage schemes' second slice scan (§6.1). A planned call
// passes nil and charges its bulk-copy formula instead.
type coldScan struct {
	scheme Scheme
	w0     int
	sel    []uint64
	whole  bool
}

// newColdScan returns the charge policy of an unplanned call on layout
// l with mask bitset sel.
func newColdScan(l *dist.Layout, sel []uint64, opt Options) *coldScan {
	return &coldScan{scheme: opt.Scheme, w0: l.Dims[0].W, sel: sel, whole: opt.WholeSliceScan}
}

// records reports whether the call keeps the simple storage scheme's
// per-element records, and so charges per record instead of per slice.
func (cs *coldScan) records() bool { return cs != nil && cs.scheme == SchemeSSS }

// pairs reports whether PACK's messages are charged as (datum, rank)
// pairs: a cold SSS or CSS call.
func (cs *coldScan) pairs() bool { return cs != nil && cs.scheme != SchemeCMS }

// chargeDecompose books the decomposition of one received PACK message
// of segments segs: once per message under the pair schemes, once per
// segment otherwise.
func (cs *coldScan) chargeDecompose(p transport.Endpoint, segs []reqSeg) {
	if !cs.pairs() {
		for _, s := range segs {
			p.Charge(2 + s.Count) // header + data decomposition
		}
		return
	}
	n := 0
	for _, s := range segs {
		n += s.Count
	}
	p.Charge(2 * n) // message decomposition
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

// forEachRankRun walks a call's segments: for every non-empty slice,
// the consecutive ranks PS_f[slice].. are split at the result vector's
// block boundaries, and fn sees one piece at a time, in local order: its
// slice, destination, base rank and count. The walk only reads the
// ranking's slice arrays, so callers may use it as an uncharged sizing
// pre-pass, and it follows the vector's blocks with a cursor that
// divides only when the walk jumps a block. Compose, UNPACK requests and
// placement cut their segments here under every scheme, cold or
// planned, which is why every call sends the same messages.
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
// they hold (counts[P:]): the exact sizes of the per-destination lists
// and buffers, from which every message's words follow. It is an
// uncharged sizing walk; a plan stores its result.
func segmentCounts(rnk *ranking.Result, vec dist.VectorDist) []int {
	n := vec.P
	counts := make([]int, 2*n)
	forEachRankRun(rnk, vec, func(_, dst, _, cnt int) {
		counts[dst]++
		counts[n+dst] += cnt
	})
	return counts
}

// composeSegments builds PACK's messages, one segBatch per
// destination: the consecutive ranks r0..r0+n-1 of a slice are split at
// the result vector's block boundaries, and each piece travels as
// (base rank, count, data...). The smaller the vector's blocks, the
// more segments (Section 6.2). counts is segmentCounts(rnk, vec). Each
// peer's data buffer comes from the message pool at its exact final
// length, and the bitset walk fills it once per stretch of consecutive
// segments bound for that peer. A segment bound for the calling rank
// itself is collected straight into v, its local result portion, at the
// segment's local offset, and its batch keeps only the headers. The
// charges, in walk order: cold SSS one datum and rank write per record,
// at the end; cold CSS and CMS the counter-array check, then at each
// non-empty slice's first segment its second scan with the datum
// writes, then CSS its rank writes, and CMS two header words per
// segment; a plan (cs nil) the bulk-copy formula once, one PS_c read
// per slice, two header words per segment and one op per datum.
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
	scans := cs != nil && !cs.records() // the compact storage schemes
	if scans {
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
		if scans {
			if c := rnk.PSc[slice]; base == rnk.PSf[slice] {
				p.Charge(cs.scanLen(slice, c, c) + c) // element reads + datum writes
				if cs.pairs() {
					p.Charge(c) // rank writes
				}
			}
			if !cs.pairs() {
				p.Charge(2) // segment header (base rank + count)
			}
		}
	})
	if run > 0 {
		flush()
	}
	switch {
	case cs == nil:
		p.Charge(len(rnk.PSc) + 2*segs + rnk.LocalTrue)
	case cs.records():
		p.Charge(2 * rnk.LocalTrue) // write datum and rank per record
	}
	return send
}
