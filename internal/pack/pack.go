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

	"packunpack/internal/comm"
	"packunpack/internal/dist"
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
	// (layout, mask, options) configuration, compile a bulk-copy plan
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

// segMsg is one segment of the compact message scheme: the ranks of
// Data are Base, Base+1, ..., so only the base rank and the implicit
// count travel as header words.
type segMsg[T any] struct {
	Base int
	Data []T
}

func segWords[T any](segs []segMsg[T]) int {
	w := 0
	for _, s := range segs {
		w += 2 + len(s.Data)
	}
	return w
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
	if opt.Plans != nil {
		return packPlanned(p, l, a, m, opt, pad, nVec)
	}
	rnk, err := ranking.Rank(p, l, m, opt.rankingOptions(opt.Scheme == SchemeSSS))
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
	world := comm.World(p)

	switch opt.Scheme {
	case SchemeSSS, SchemeCSS:
		send := make([][]pair[T], p.NProcs())
		if opt.Scheme == SchemeSSS {
			composePairsSSS(p, a, rnk, vec, send)
		} else {
			composePairsCSS(p, l, a, m, rnk, vec, send, opt.WholeSliceScan)
		}
		prev := p.SetPhase(PhaseM2M)
		recv := comm.AlltoallVOpt(world, send, 2, opt.A2A)
		p.SetPhase(prev)
		for _, buf := range recv {
			p.Charge(2 * len(buf)) // message decomposition
			for _, pr := range buf {
				_, lo := vec.Owner(pr.Rank)
				res.V[lo] = pr.Datum
			}
		}
	case SchemeCMS:
		send := make([][]segMsg[T], p.NProcs())
		composeSegmentsCMS(p, l, a, m, rnk, vec, send, opt.WholeSliceScan)
		words := make([]int, len(send))
		for i := range send {
			words[i] = segWords(send[i])
		}
		prev := p.SetPhase(PhaseM2M)
		recv := comm.AlltoallVW(world, send, words, opt.A2A)
		p.SetPhase(prev)
		for _, buf := range recv {
			for _, seg := range buf {
				p.Charge(2 + len(seg.Data)) // header + data decomposition
				_, lo := vec.Owner(seg.Base)
				copy(res.V[lo:], seg.Data)
			}
		}
	default:
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	recordPackOp(p, "pack", len(res.V))
	return res, nil
}

// carvePairArena pre-sizes the per-destination send lists to their
// exact final lengths: one backing arena, subsliced per destination
// with zero length and exact capacity, so the append-based compose
// loops fill without ever reallocating. Destinations with no elements
// stay nil. The sizing walk is host bookkeeping, not part of the
// paper's cost model — nothing here is Charged.
func carvePairArena[T any](send [][]pair[T], counts []int) {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return
	}
	arena := make([]pair[T], total)
	off := 0
	for dst, c := range counts {
		if c == 0 {
			continue
		}
		send[dst] = arena[off : off : off+c]
		off += c
	}
}

// composePairsSSS builds the per-destination (datum, rank) messages
// from the records saved by the simple storage scheme.
func composePairsSSS[T any](p transport.Endpoint, a []T, rnk *ranking.Result, vec dist.VectorDist, send [][]pair[T]) {
	counts := make([]int, len(send))
	for _, rec := range rnk.Records {
		dst, _ := vec.Owner(rnk.RankOf(rec))
		counts[dst]++
	}
	carvePairArena(send, counts)
	for _, rec := range rnk.Records {
		r := rnk.RankOf(rec)
		dst, _ := vec.Owner(r)
		send[dst] = append(send[dst], pair[T]{Datum: a[rec.Off], Rank: r})
	}
	p.Charge(2 * len(rnk.Records)) // write datum and rank per element
}

// sliceGeom captures the dimension-0 slice arithmetic of a layout.
type sliceGeom struct {
	l0, w0, t0, slices int
}

func geomOf(l *dist.Layout) sliceGeom {
	return sliceGeom{l0: l.Dims[0].L(), w0: l.Dims[0].W, t0: l.Dims[0].T(), slices: l.Slices()}
}

// collectSlice writes the data values of the slice's count selected
// elements, in order, to buf[:count] and returns that prefix; buf must
// hold W_0 values and count must be the slice's PS_c entry. The host
// loop reads the whole slice without a data-dependent branch: every
// element is written at the next free position, and only a selected
// element advances it. The charge is the paper's second scan under the
// chosen policy, plus one datum write per selected element: the
// stop-early default reads up to the slice's last selected element
// (the slice holds exactly count of them), WholeSliceScan all W_0.
func collectSlice[T any](p transport.Endpoint, g sliceGeom, a []T, m []bool, slice, count int, whole bool, buf []T) []T {
	base := slice * g.w0
	ms := m[base : base+g.w0]
	as := a[base : base+len(ms)]
	k := 0
	for i, b := range ms {
		buf[k] = as[i]
		if b {
			k++
		}
	}
	scanned := len(ms)
	for !whole && scanned > 0 && !ms[scanned-1] {
		scanned-- // stop early: up to the last selected element
	}
	p.Charge(scanned + count) // element reads + datum writes
	return buf[:count]
}

// forEachRankRun walks the rank runs of the compact schemes: for every
// non-empty slice, the consecutive ranks PS_f[slice].. are split at the
// result vector's block boundaries and fn sees one (destination, count)
// piece at a time, in compose order. The walk only reads the ranking
// slice counters, so the compose functions use it as an uncharged
// sizing pre-pass.
func forEachRankRun(rnk *ranking.Result, vec dist.VectorDist, slices int, fn func(dst, cnt int)) {
	for slice := 0; slice < slices; slice++ {
		n := rnk.PSc[slice]
		if n == 0 {
			continue
		}
		r := rnk.PSf[slice]
		taken := 0
		for taken < n {
			dst, _ := vec.Owner(r)
			c := min(vec.BlockRunEnd(r)-r, n-taken)
			fn(dst, c)
			r += c
			taken += c
		}
	}
}

// composePairsCSS regenerates ranks by comparing PS_c with PS_f
// (Section 6.1) and builds (datum, rank) messages with a second slice
// scan; only slices with at least one selected element are scanned.
func composePairsCSS[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, rnk *ranking.Result, vec dist.VectorDist, send [][]pair[T], whole bool) {
	g := geomOf(l)
	counts := make([]int, len(send))
	forEachRankRun(rnk, vec, g.slices, func(dst, cnt int) { counts[dst] += cnt })
	carvePairArena(send, counts)
	buf := make([]T, g.w0)
	p.Charge(g.slices) // check the counter array, one read per slice
	for slice := 0; slice < g.slices; slice++ {
		n := rnk.PSc[slice]
		if n == 0 {
			continue
		}
		r0 := rnk.PSf[slice]
		for i, datum := range collectSlice(p, g, a, m, slice, n, whole, buf) {
			r := r0 + i
			dst, _ := vec.Owner(r)
			send[dst] = append(send[dst], pair[T]{Datum: datum, Rank: r})
		}
		p.Charge(n) // rank writes (the datum writes were charged above)
	}
}

// composeSegmentsCMS builds the compact message scheme's segment
// messages: the consecutive ranks r0..r0+n-1 of a slice are split at
// the result vector's block boundaries, and each piece travels as
// (base rank, count, data...). The smaller the vector's blocks, the
// more segments (Section 6.2).
func composeSegmentsCMS[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, rnk *ranking.Result, vec dist.VectorDist, send [][]segMsg[T], whole bool) {
	g := geomOf(l)
	// Sizing pre-pass (uncharged host bookkeeping): per-destination
	// segment counts carve the segment arena; the data words of all
	// segments share one arena, consumed in compose order.
	segCounts := make([]int, len(send))
	totalData := 0
	forEachRankRun(rnk, vec, g.slices, func(dst, cnt int) {
		segCounts[dst]++
		totalData += cnt
	})
	totalSegs := 0
	for _, c := range segCounts {
		totalSegs += c
	}
	if totalSegs > 0 {
		segArena := make([]segMsg[T], totalSegs)
		off := 0
		for dst, c := range segCounts {
			if c == 0 {
				continue
			}
			send[dst] = segArena[off : off : off+c]
			off += c
		}
	}
	dataArena := make([]T, totalData)
	dOff := 0
	buf := make([]T, g.w0)
	p.Charge(g.slices) // check the counter array, one read per slice
	for slice := 0; slice < g.slices; slice++ {
		n := rnk.PSc[slice]
		if n == 0 {
			continue
		}
		got := collectSlice(p, g, a, m, slice, n, whole, buf)
		r := rnk.PSf[slice]
		taken := 0
		for taken < n {
			dst, _ := vec.Owner(r)
			fit := vec.BlockRunEnd(r) - r
			cnt := min(fit, n-taken)
			data := dataArena[dOff : dOff+cnt : dOff+cnt]
			dOff += cnt
			copy(data, got[taken:taken+cnt])
			send[dst] = append(send[dst], segMsg[T]{Base: r, Data: data})
			p.Charge(2) // segment header (base rank + count)
			r += cnt
			taken += cnt
		}
	}
}
