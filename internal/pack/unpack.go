package pack

import (
	"fmt"
	"slices"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
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
	if opt.Plans != nil {
		return unpackPlanned(p, l, v, nPrime, m, field, opt)
	}
	vec, err := dist.NewVectorDist(nPrime, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, distribution of N'=%d gives %d", len(v), nPrime, want)
	}

	rnk, err := ranking.Rank(p, l, m, opt.rankingOptions(opt.Scheme == SchemeSSS))
	if err != nil {
		return nil, err
	}
	if rnk.Size > nPrime {
		return nil, fmt.Errorf("unpack: vector too short: N'=%d < Size=%d", nPrime, rnk.Size)
	}

	world := comm.World(p)
	n := p.NProcs()

	// ---- Compose requests, remembering how to place the replies. ----
	reqs := make([][]reqSeg, n)
	reqWords := make([]int, n)
	// For CSS, placement[i] lists (slice, skip, count) triples in
	// request order; for SSS, recIdx[i] lists record indices.
	type placeSeg struct{ slice, skip, count int }
	var placement [][]placeSeg
	var recIdx [][]int

	// The per-destination request/placement lists are pre-sized to
	// their exact final lengths from the ranking results (uncharged
	// host bookkeeping), so the append loops below never reallocate.
	counts := make([]int, n)
	if opt.Scheme == SchemeSSS {
		for _, rec := range rnk.Records {
			dst, _ := vec.Owner(rnk.RankOf(rec))
			counts[dst]++
		}
		carve(reqs, counts)
		recIdx = make([][]int, n)
		carve(recIdx, counts)
		for ri, rec := range rnk.Records {
			r := rnk.RankOf(rec)
			dst, _ := vec.Owner(r)
			reqs[dst] = append(reqs[dst], reqSeg{Base: r, Count: 1})
			recIdx[dst] = append(recIdx[dst], ri)
			reqWords[dst]++ // one word per individual rank request
		}
		p.Charge(2 * len(rnk.Records)) // resolve rank, write request
	} else {
		forEachRankRun(rnk, vec, func(_, dst, _, _ int) { counts[dst]++ })
		carve(reqs, counts)
		placement = make([][]placeSeg, n)
		carve(placement, counts)
		p.Charge(geomOf(l).slices) // check the counter array, one read per slice
		forEachRankRun(rnk, vec, func(slice, dst, base, c int) {
			reqs[dst] = append(reqs[dst], reqSeg{Base: base, Count: c})
			placement[dst] = append(placement[dst], placeSeg{slice: slice, skip: base - rnk.PSf[slice], count: c})
			reqWords[dst] += 2
			p.Charge(2) // request segment header
		})
	}

	// ---- Stage 1: requests to the vector owners. ----
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, reqWords, opt.A2A)
	p.SetPhase(prev)

	// ---- Serve: slice the local vector portion per request. ----
	replies := serveVecRequests(p, vec, v, gotReqs)

	// ---- Stage 2: data back to the requesters. ----
	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVOpt(world, replies, 1, opt.A2A)
	p.SetPhase(prev)

	// ---- Place: field values where the mask is false, vector data
	// where it is true. The field array is copied whole and the
	// placement below overwrites every selected position. ----
	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(l.LocalSize()) // the local field-array transfer pass
	if opt.Scheme == SchemeSSS {
		for src, data := range gotData {
			for i, ri := range recIdx[src] {
				rec := rnk.Records[ri]
				res.A[rec.Off] = data[i]
			}
			p.Charge(2 * len(data)) // read record, write datum
		}
	} else {
		g := geomOf(l)
		offs := make([]int, g.w0)
		for src, data := range gotData {
			pos := 0
			for _, pl := range placement[src] {
				pos += placeIntoSlice(p, g, res.A, m, pl.slice, pl.skip, pl.count, data[pos:], opt.WholeSliceScan, offs)
			}
		}
	}
	return res, nil
}

// serveVecRequests answers the owner side of UNPACK's two-phase
// exchange: for every received request segment, the owner slices the
// requested run out of its local vector portion. The planned and
// unplanned paths share this helper, so a served request costs the
// same (one header read plus one op per copied word) either way.
func serveVecRequests[T any](p transport.Endpoint, vec dist.VectorDist, v []T, gotReqs [][]reqSeg) [][]T {
	replies := make([][]T, len(gotReqs))
	for src, list := range gotReqs {
		if len(list) == 0 {
			continue
		}
		total := 0
		for _, rq := range list {
			total += rq.Count
		}
		out := make([]T, 0, total)
		for _, rq := range list {
			p.Charge(1 + rq.Count) // read request, copy data
			_, lo := vec.Owner(rq.Base)
			out = append(out, v[lo:lo+rq.Count]...)
		}
		replies[src] = out
	}
	return replies
}

// placeIntoSlice writes data[:count] to the slice's selected positions
// number skip .. skip+count-1 (in slice order) and returns count; offs
// is scratch for W_0 offsets. The host first packs the local offsets of
// the slice's selected elements into offs without a data-dependent
// branch (every offset is written at the next free position, and only
// a selected element advances it), then writes straight to them. The
// charge is the paper's rescan under the chosen policy plus one write
// per element, as in collectSlice: the stop-early default reads up to
// the last written position, WholeSliceScan all W_0.
func placeIntoSlice[T any](p transport.Endpoint, g sliceGeom, a []T, m []bool, slice, skip, count int, data []T, whole bool, offs []int) int {
	base := slice * g.w0
	n := 0
	for i, b := range m[base : base+g.w0] {
		offs[n] = base + i
		if b {
			n++
		}
	}
	if n < skip+count {
		panic(fmt.Sprintf("pack: internal error: placed %d of %d elements in slice %d", max(n-skip, 0), count, slice))
	}
	data = data[:count]
	for j, off := range offs[skip : skip+count] {
		a[off] = data[j]
	}
	scanned := g.w0
	if !whole {
		scanned = offs[skip+count-1] + 1 - base
	}
	p.Charge(scanned + count)
	return count
}
