// Package ranking implements the parallel ranking algorithm of
// Section 5 of the paper: given a block-cyclically distributed logical
// mask array of arbitrary rank, compute for every true element its rank
// (its index in the packed result vector) without moving any array
// elements between processors.
//
// The algorithm works on 2d per-dimension base-rank arrays PS_i / RS_i
// of shape (L_{d-1}, ..., L_{i+1}, T_i):
//
//  1. Initial step (local scan): count the true elements of every
//     slice (the W_0 contiguous local elements within one tile of
//     dimension 0) into PS_0 = RS_0.
//  2. Intermediate step i (for i = 0..d-1), Figure 2:
//     substep 1 — vector prefix-reduction-sum along dimension i's
//     processor group (PS_i becomes the exclusive prefix, RS_i the
//     per-tile total);
//     substep 2 — segmented local exclusive prefix-sum on RS_i (one
//     segment per block of dimension i+1), then PS_i += RS_i;
//     substep 3 — initialize PS_{i+1} = RS_{i+1} with the per-block
//     totals (pre-prefix stash + post-prefix boundary entry); at the
//     top dimension this pair yields Size instead.
//  3. Final step: fold the base-rank arrays downward
//     (PS_i += broadcast of PS_{i+1} over block rows) into the final
//     base-rank array PS_f, indexed by slice; the global rank of a
//     true element is its initial within-slice rank plus PS_f at its
//     slice.
package ranking

import (
	"fmt"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/transport"
)

// PhasePRS is the sim phase name under which all prefix-reduction-sum
// time is booked, so that harnesses can report it separately exactly as
// the paper does ("excluding the time taken by the prefix-reduction-
// sum").
const PhasePRS = "prs"

// Options select algorithmic variants of the ranking stage.
type Options struct {
	// PRS picks the prefix-reduction-sum algorithm (default: the
	// paper's auto rule).
	PRS comm.PRSAlgorithm
	// KeepRecords stores one record per local true element during the
	// initial scan — the simple storage scheme (SSS) of Section 6.1.
	// When false, only the slice counter array PS_c is kept, as the
	// compact storage scheme (CSS/CMS) requires.
	KeepRecords bool
	// SeparatePrefixReduce runs the prefix-sum and the reduction-sum
	// as two separate collectives instead of the combined
	// prefix-reduction-sum primitive. Costs one extra round of
	// start-ups per intermediate step; exists for the ablation
	// benchmark of the combined primitive (Section 5.1).
	SeparatePrefixReduce bool
}

// Record is the per-element information the simple storage scheme saves
// during the initial scan (Section 6.1: "a local index on each
// dimension, a tile number, and an initial local rank"). The local
// index vector and tile number are packed into the flat local offset
// and slice id; the storage cost charged matches the paper's d+2 items.
type Record struct {
	Off      int // flat local offset of the element
	Slice    int // slice id (index into PS_f)
	InitRank int // rank within its slice
}

// Result is the outcome of the ranking stage on one processor.
type Result struct {
	// Size is the global number of selected elements — the length of
	// the packed vector. Identical on every processor.
	Size int
	// PSf is the final base-rank array, one entry per local slice: the
	// global rank of the first selected element of the slice (i.e. the
	// number of selected elements anywhere before the slice).
	PSf []int
	// PSc is the counter array: the number of selected elements in
	// each local slice (the copy of the initial PS_0).
	PSc []int
	// Records holds the per-element information when
	// Options.KeepRecords was set, in local scan order.
	Records []Record
	// LocalTrue is E_i, the number of selected elements on this
	// processor.
	LocalTrue int
}

// geometry bundles the per-step index arithmetic of the base-rank
// arrays.
type geometry struct {
	l *dist.Layout
	d int
	// above[i] = prod_{k>i} L_k: the number of "rows" above dimension
	// i, i.e. the h*m index space of PS_i divided into L_{i+1} and the
	// rest.
	above []int
}

func newGeometry(l *dist.Layout) geometry {
	d := l.Rank()
	above := make([]int, d+1)
	above[d] = 1
	for i := d - 1; i >= 0; i-- {
		above[i] = above[i+1] * l.Dims[i].L()
	}
	// above[i] as stored now is prod_{k>=i} L_k; shift so that
	// above[i] = prod_{k>i} L_k.
	shifted := make([]int, d+1)
	for i := 0; i <= d; i++ {
		if i == d {
			shifted[i] = 1
		} else {
			shifted[i] = above[i+1]
		}
	}
	return geometry{l: l, d: d, above: shifted}
}

// size returns M_i = T_i * prod_{k>i} L_k, the length of PS_i/RS_i.
func (g geometry) size(i int) int { return g.l.Dims[i].T() * g.above[i] }

// DimGroups builds, for processor p of the layout's grid, the
// per-dimension communication groups: group i contains the processors
// whose grid coordinates agree with p's everywhere except coordinate i,
// ordered by that coordinate.
func DimGroups(p transport.Endpoint, l *dist.Layout) ([]comm.Group, error) {
	if p.NProcs() != l.Procs() {
		return nil, fmt.Errorf("ranking: machine has %d processors but layout needs %d", p.NProcs(), l.Procs())
	}
	coords := l.GridCoords(p.Rank())
	groups := make([]comm.Group, l.Rank())
	for i := range groups {
		ranks := make([]int, l.Dims[i].P)
		c := append([]int(nil), coords...)
		for ci := range ranks {
			c[i] = ci
			ranks[ci] = l.GridRank(c)
		}
		g, err := comm.NewGroup(p, ranks)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}
	return groups, nil
}

// Rank executes the parallel ranking algorithm for the calling
// processor. mask is the processor's local portion of the mask array in
// local row-major order (dimension 0 fastest); its length must be the
// layout's local size. Every processor of the machine must call Rank
// with the same layout and options.
func Rank(p transport.Endpoint, l *dist.Layout, mask []bool, opt Options) (*Result, error) {
	if len(mask) != l.LocalSize() {
		return nil, fmt.Errorf("ranking: local mask has %d elements, layout needs %d", len(mask), l.LocalSize())
	}
	groups, err := DimGroups(p, l)
	if err != nil {
		return nil, err
	}
	geo := newGeometry(l)
	d := l.Rank()

	// ---- Initial step: local scan (Section 5.2). ----
	res := &Result{}
	ps := make([][]int, d)
	ps[0] = make([]int, geo.size(0))
	if opt.KeepRecords {
		l0 := l.Dims[0].L()
		w0 := l.Dims[0].W
		t0 := l.Dims[0].T()
		for off, sel := range mask {
			if !sel {
				continue
			}
			rest := off / l0
			slice := rest*t0 + (off%l0)/w0
			res.Records = append(res.Records, Record{Off: off, Slice: slice, InitRank: ps[0][slice]})
			ps[0][slice]++
			res.LocalTrue++
		}
	} else {
		res.LocalTrue = countSlices(mask, l.Dims[0].W, ps[0])
	}
	p.Charge(len(mask)) // read every mask element
	if opt.KeepRecords {
		// SSS: save a d+3-item record per element — a local index on
		// each dimension, a tile number, an initial rank and a
		// destination slot (Section 6.4.1 charges this maintenance at
		// Theta(4E) for d=1). d+1 item writes happen here; the final
		// step pays the remaining 2 (read and rank update).
		p.Charge((d + 1) * res.LocalTrue)
	} else {
		p.Charge(res.LocalTrue) // counter increments
	}
	// RS_0 starts equal to PS_0.
	rs := cloneInts(ps[0])
	p.Charge(len(rs))
	if !opt.KeepRecords {
		// CSS/CMS: copy PS_0 to the counter array PS_c (Section 6.1).
		res.PSc = cloneInts(ps[0])
		p.Charge(len(res.PSc))
	} else {
		res.PSc = cloneInts(ps[0]) // free bookkeeping for assertions
	}

	// ---- Intermediate steps (Figure 2). ----
	for i := 0; i < d; i++ {
		m := geo.size(i)
		ti := l.Dims[i].T()

		// Substep 1: vector prefix-reduction-sum along dimension i.
		prev := p.SetPhase(PhasePRS)
		var prefix, total []int
		if opt.SeparatePrefixReduce {
			prefix, _ = groups[i].PrefixReductionSum(rs, opt.PRS)
			_, total = groups[i].PrefixReductionSum(rs, opt.PRS)
		} else {
			prefix, total = groups[i].PrefixReductionSum(rs, opt.PRS)
		}
		p.SetPhase(prev)
		ps[i] = prefix
		rs = total

		if i < d-1 {
			li1 := l.Dims[i+1].L()
			wi1 := l.Dims[i+1].W
			ti1 := l.Dims[i+1].T()
			high := geo.above[i+1] // prod_{k>i+1} L_k

			// Substep 2.1: stash the pre-prefix block boundary values.
			stash := make([]int, high*ti1)
			for h := 0; h < high; h++ {
				rowbase := h * li1 * ti
				for k := 0; k < ti1; k++ {
					idx := rowbase + ((k+1)*wi1-1)*ti + (ti - 1)
					stash[h*ti1+k] = rs[idx]
				}
			}
			p.Charge(len(stash))

			// Substeps 2.2/2.3: segmented exclusive prefix-sum on RS,
			// one segment per dimension-(i+1) block.
			for h := 0; h < high; h++ {
				rowbase := h * li1 * ti
				for k := 0; k < ti1; k++ {
					run := 0
					for mm := k * wi1; mm < (k+1)*wi1; mm++ {
						base := rowbase + mm*ti
						for t := 0; t < ti; t++ {
							rs[base+t], run = run, run+rs[base+t]
						}
					}
				}
			}
			p.Charge(m)

			// Substep 2.4: PS_i += RS_i.
			for j := 0; j < m; j++ {
				ps[i][j] += rs[j]
			}
			p.Charge(m)

			// Substep 3: PS_{i+1} = RS_{i+1} = stash + post-prefix
			// boundary.
			next := make([]int, high*ti1)
			for h := 0; h < high; h++ {
				rowbase := h * li1 * ti
				for k := 0; k < ti1; k++ {
					idx := rowbase + ((k+1)*wi1-1)*ti + (ti - 1)
					next[h*ti1+k] = stash[h*ti1+k] + rs[idx]
				}
			}
			p.Charge(len(next))
			ps[i+1] = nil // assigned by the next iteration's substep 1
			rs = next
		} else {
			// Top dimension: a single segment; Size = pre-prefix last
			// entry + post-prefix last entry.
			pre := rs[m-1]
			run := 0
			for t := 0; t < m; t++ {
				rs[t], run = run, run+rs[t]
			}
			p.Charge(m)
			for j := 0; j < m; j++ {
				ps[i][j] += rs[j]
			}
			p.Charge(m)
			res.Size = pre + rs[m-1]
		}
	}

	// ---- Final step (Section 5.4): fold PS_{i+1} into PS_i. ----
	for i := d - 2; i >= 0; i-- {
		li1 := l.Dims[i+1].L()
		wi1 := l.Dims[i+1].W
		ti := l.Dims[i].T()
		ti1 := l.Dims[i+1].T()
		high := geo.above[i+1]
		for h := 0; h < high; h++ {
			rowbase := h * li1 * ti
			for mm := 0; mm < li1; mm++ {
				addend := ps[i+1][h*ti1+mm/wi1]
				base := rowbase + mm*ti
				for t := 0; t < ti; t++ {
					ps[i][base+t] += addend
				}
			}
		}
		p.Charge(geo.size(i))
	}
	res.PSf = ps[0]

	if opt.KeepRecords {
		// SSS final step: resolve every record's global rank (the
		// read half of the record maintenance cost).
		p.Charge(2 * len(res.Records))
	}
	return res, nil
}

// RankOf resolves the global rank of a record against the final
// base-rank array.
func (r *Result) RankOf(rec Record) int { return r.PSf[rec.Slice] + rec.InitRank }

// countSlices is the compact schemes' initial scan: it stores the number
// of selected elements of every slice in ps0 and returns their sum.
// Because dist.Dim.Validate makes L_0 a multiple of W_0, slice s is
// exactly mask[s*w0 : (s+1)*w0], so the scan needs no division. The
// conditional increment compiles to a conditional move: the loop has no
// data-dependent branch for a random mask to mispredict. It is kept out
// of line because, inlined into Rank, its counters spill to the stack:
// a one-processor Rank of a 2^19-element mask at density 0.5 then took
// 1.7 instead of 1.1 ns per element (Go 1.24, 2-vCPU Xeon).
//
//go:noinline
func countSlices(mask []bool, w0 int, ps0 []int) int {
	total := 0
	for s := range ps0 {
		c := 0
		for _, b := range mask[s*w0 : (s+1)*w0] {
			if b {
				c++
			}
		}
		ps0[s] = c
		total += c
	}
	return total
}

func cloneInts(v []int) []int {
	out := make([]int, len(v))
	copy(out, v)
	return out
}

// SliceBase returns the flat local offset of the first element of the
// given slice, for a layout with local extent l0, block size w0 and t0
// tiles along dimension 0. Slices are W_0 contiguous local elements:
// slice s covers offsets [SliceBase, SliceBase+W_0).
func SliceBase(slice, l0, w0, t0 int) int {
	rest := slice / t0
	tile := slice % t0
	return rest*l0 + tile*w0
}
