// Package redist implements array redistribution between block-cyclic
// layouts and the two preliminary redistribution schemes of Section 6.3
// of the paper, which reduce the ranking overhead of PACK when the
// input array is distributed cyclically:
//
//   - RedistSelected (the paper's "Redistribution of Selected Data",
//     Red.1 in Table II): only the elements whose mask value is true
//     are sent to their owners under the target block distribution,
//     each tagged with its combined global index; the receivers
//     rebuild a temporary array and mask.
//   - RedistWhole (the paper's "Redistribution of Whole Arrays",
//     Red.2): the input array and the mask array are both fully
//     redistributed. Messages carry no indices, so the scheme needs
//     two phases of communication detection — one for the elements to
//     be sent, one for those to be received (reference [7]).
//
// Both are followed by PACK with the compact message scheme on the
// block-distributed temporaries, which is where CMS performs best.
//
// # Communication detection cost model
//
// The paper's Table II shows redistribution costs dominated by
// communication detection: the general block-cyclic redistribution
// runtime of reference [7] builds per-dimension communication pattern
// tables whose size tracks the number of global blocks N_i/W_i along
// each dimension — enormous for a cyclic distribution (N_i blocks) and
// tiny for a block distribution (P_i blocks). This emulation charges
// DetectOpsPerBlock elementary operations per global source block per
// dimension for every detection phase, which reproduces the paper's
// shape: in 1-D, detection swamps the savings and neither
// redistribution scheme beats plain SSS on the cyclic input; in 2-D,
// where the same global size spreads over two dimensions (N_0 + N_1
// blocks instead of N blocks), the pipelines win.
package redist

import (
	"fmt"
	"sort"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/transport"
)

// PhaseRedist is the sim phase under which redistribution
// communication is booked.
const PhaseRedist = "redist"

// DetectOpsPerBlock is the modelled cost, in elementary operations, of
// processing one global source block of one dimension during a
// communication detection phase (building the send or receive pattern
// tables of the reference [7] runtime). Calibrated so that the
// Table II shape of the paper holds; see the package comment.
const DetectOpsPerBlock = 12

// detectionCharge books one communication detection phase against the
// calling processor: pattern-table construction over all global source
// blocks of every dimension.
func detectionCharge(p transport.Endpoint, src *dist.Layout) {
	blocks := 0
	for _, d := range src.Dims {
		blocks += d.N / d.W
	}
	p.Charge(blocks * DetectOpsPerBlock)
}

// BlockLayout returns the layout with the same global shape and
// processor grid as l but block distribution (W_i = L_i) along every
// dimension — the redistribution target that minimizes the ranking
// overhead (one tile per dimension).
func BlockLayout(l *dist.Layout) *dist.Layout {
	dims := make([]dist.Dim, l.Rank())
	for i, d := range l.Dims {
		dims[i] = dist.Dim{N: d.N, P: d.P, W: d.L()}
	}
	return dist.MustLayout(dims...)
}

// sameShape verifies that two layouts describe the same global array on
// the same processor grid.
func sameShape(a, b *dist.Layout) error {
	if a.Rank() != b.Rank() {
		return fmt.Errorf("redist: rank mismatch %d vs %d", a.Rank(), b.Rank())
	}
	for i := range a.Dims {
		if a.Dims[i].N != b.Dims[i].N {
			return fmt.Errorf("redist: dimension %d extent mismatch %d vs %d", i, a.Dims[i].N, b.Dims[i].N)
		}
		if a.Dims[i].P != b.Dims[i].P {
			return fmt.Errorf("redist: dimension %d grid mismatch %d vs %d", i, a.Dims[i].P, b.Dims[i].P)
		}
	}
	return nil
}

// incoming records where one received element lands: its offset in the
// sender's local scan order determines the order within the message,
// dstOff where it is stored.
type incoming struct{ srcOff, dstOff int }

// Plan is the result of communication detection for a whole-array
// redistribution from src to dst, reusable across conformable arrays
// (the Red.2 pipeline applies one plan to both the input array and the
// mask array).
type Plan struct {
	src, dst *dist.Layout
	rank     int
	// sendDst[i] is the destination rank of the i-th local element in
	// local scan order.
	sendDst []int
	// sendLen[r] is the number of elements destined to rank r.
	sendLen []int
	// place[r] lists the landing spots of the elements arriving from
	// rank r, in that sender's scan order.
	place [][]incoming
}

// NewPlan performs the two communication detection phases of the
// whole-array redistribution scheme: one for the elements to be sent
// and one for those to be received (reference [7]). The returned plan
// can move any number of conformable arrays.
func NewPlan(p transport.Endpoint, src, dst *dist.Layout) (*Plan, error) {
	if err := sameShape(src, dst); err != nil {
		return nil, err
	}
	n := p.NProcs()
	pl := &Plan{src: src, dst: dst, rank: p.Rank(), sendLen: make([]int, n)}

	// Phase 1: where does each of my source elements go?
	detectionCharge(p, src)
	pl.sendDst = make([]int, src.LocalSize())
	w := src.Runs(p.Rank())
	for off, pos, ln, ok := w.Next(); ok; off, pos, ln, ok = w.Next() {
		for k := range ln {
			rank, _ := dst.GlobalPosOwner(pos + k)
			pl.sendDst[off+k] = rank
			pl.sendLen[rank]++
		}
	}
	p.Charge(src.LocalSize()) // send-set enumeration

	// Phase 2: which of my destination elements come from whom, and
	// in what order within each source's message? The message order is
	// the sender's local scan order, i.e. ascending source offset.
	detectionCharge(p, src)
	pl.place = make([][]incoming, n)
	w = dst.Runs(p.Rank())
	for off, pos, ln, ok := w.Next(); ok; off, pos, ln, ok = w.Next() {
		for k := range ln {
			rank, srcOff := src.GlobalPosOwner(pos + k)
			pl.place[rank] = append(pl.place[rank], incoming{srcOff: srcOff, dstOff: off + k})
		}
	}
	for _, list := range pl.place {
		sort.Slice(list, func(i, j int) bool { return list[i].srcOff < list[j].srcOff })
	}
	p.Charge(2 * dst.LocalSize()) // receive-set enumeration and ordering
	return pl, nil
}

// Apply moves one array according to the plan: index-free messages
// over the linear permutation schedule. It returns the local array
// under the plan's destination layout.
func Apply[T any](p transport.Endpoint, pl *Plan, a []T) ([]T, error) {
	if len(a) != pl.src.LocalSize() {
		return nil, fmt.Errorf("redist: local array has %d elements, source layout needs %d", len(a), pl.src.LocalSize())
	}
	if p.Rank() != pl.rank {
		return nil, fmt.Errorf("redist: plan built for rank %d applied on rank %d", pl.rank, p.Rank())
	}
	n := p.NProcs()
	send := make([][]T, n)
	for r, ln := range pl.sendLen {
		if ln > 0 {
			send[r] = make([]T, 0, ln)
		}
	}
	for off, dst := range pl.sendDst {
		send[dst] = append(send[dst], a[off])
	}
	p.Charge(len(a)) // message composition

	prev := p.SetPhase(PhaseRedist)
	recv := comm.AlltoallV(comm.World(p), send, 1)
	p.SetPhase(prev)

	out := make([]T, pl.dst.LocalSize())
	for srcRank, data := range recv {
		if len(data) != len(pl.place[srcRank]) {
			return nil, fmt.Errorf("redist: expected %d elements from %d, got %d", len(pl.place[srcRank]), srcRank, len(data))
		}
		for i, in := range pl.place[srcRank] {
			out[in.dstOff] = data[i]
		}
		p.Charge(len(data)) // message decomposition
	}
	return out, nil
}

// Redistribute moves a distributed array from layout src to layout dst
// (same global shape, same processor grid) using the whole-array
// scheme: a fresh two-phase communication detection followed by one
// Apply. Use NewPlan/Apply directly to amortize detection over several
// arrays.
func Redistribute[T any](p transport.Endpoint, src, dst *dist.Layout, a []T) ([]T, error) {
	pl, err := NewPlan(p, src, dst)
	if err != nil {
		return nil, err
	}
	return Apply(p, pl, a)
}

// indexed pairs a datum with its flat global position (the "combined
// global index" of Section 6.3 — d per-dimension indices folded into
// one word to minimize message size).
type indexed[T any] struct {
	Pos   int
	Datum T
}

// RedistributeSelected moves only the mask-selected elements of a to
// their owners under dst, rebuilding a temporary array and a temporary
// mask there (all-false initialized). It returns the calling
// processor's temporary local array and mask under dst.
//
// Only the send side needs communication detection (the messages carry
// the combined global indices), so the scheme pays one detection phase
// where the whole-array scheme pays two.
func RedistributeSelected[T any](p transport.Endpoint, src, dst *dist.Layout, a []T, m []bool) ([]T, []bool, error) {
	if err := sameShape(src, dst); err != nil {
		return nil, nil, err
	}
	if len(a) != src.LocalSize() || len(m) != src.LocalSize() {
		return nil, nil, fmt.Errorf("redist: local array %d / mask %d, source layout needs %d", len(a), len(m), src.LocalSize())
	}
	world := comm.World(p)
	n := p.NProcs()
	d := src.Rank()

	// Communication detection restricted to selected elements; the
	// message carries (combined global index, datum) pairs. Combining
	// the d per-dimension indices into one word costs about d
	// operations per selected element on the sender.
	detectionCharge(p, src)
	send := make([][]indexed[T], n)
	selected := 0
	w := src.Runs(p.Rank())
	for off, pos, ln, ok := w.Next(); ok; off, pos, ln, ok = w.Next() {
		for k := range ln {
			if !m[off+k] {
				continue
			}
			rank, _ := dst.GlobalPosOwner(pos + k)
			send[rank] = append(send[rank], indexed[T]{Pos: pos + k, Datum: a[off+k]})
			selected++
		}
	}
	p.Charge(src.LocalSize() + (2+d)*selected) // mask scan + pair and index composition

	prev := p.SetPhase(PhaseRedist)
	recv := comm.AlltoallV(world, send, 2)
	p.SetPhase(prev)

	outA := make([]T, dst.LocalSize())
	outM := make([]bool, dst.LocalSize())
	p.Charge(dst.LocalSize()) // initialize the temporary mask to false
	for _, data := range recv {
		// Decompose the combined index (about d operations), store the
		// datum and set the mask.
		p.Charge((3 + d) * len(data))
		for _, it := range data {
			rank, off := dst.GlobalPosOwner(it.Pos)
			if rank != p.Rank() {
				return nil, nil, fmt.Errorf("redist: element for rank %d delivered to rank %d", rank, p.Rank())
			}
			outA[off] = it.Datum
			outM[off] = true
		}
	}
	return outA, outM, nil
}

// PackRedistSelected is the paper's Red.1 pipeline: redistribute the
// selected data to the block layout, then PACK with the compact message
// scheme. opt.Scheme is ignored (CMS is used, as in Table II).
func PackRedistSelected[T any](p transport.Endpoint, src *dist.Layout, a []T, m []bool, opt pack.Options) (*pack.Result[T], error) {
	dst := BlockLayout(src)
	ta, tm, err := RedistributeSelected(p, src, dst, a, m)
	if err != nil {
		return nil, err
	}
	opt.Scheme = pack.SchemeCMS
	return pack.Pack(p, dst, ta, tm, opt)
}

// PackRedistWhole is the paper's Red.2 pipeline: redistribute the whole
// input array and mask array to the block layout (one shared
// communication detection, two applications), then PACK with the
// compact message scheme. opt.Scheme is ignored (CMS is used).
func PackRedistWhole[T any](p transport.Endpoint, src *dist.Layout, a []T, m []bool, opt pack.Options) (*pack.Result[T], error) {
	dst := BlockLayout(src)
	pl, err := NewPlan(p, src, dst)
	if err != nil {
		return nil, err
	}
	ta, err := Apply(p, pl, a)
	if err != nil {
		return nil, err
	}
	tm, err := Apply(p, pl, m)
	if err != nil {
		return nil, err
	}
	opt.Scheme = pack.SchemeCMS
	return pack.Pack(p, dst, ta, tm, opt)
}
