package dist

import "fmt"

// RunWalker enumerates one processor's local array as runs: stretches
// that are contiguous both in the local array (row-major, dimension 0
// fastest) and in the global row-major array. Under the block-cyclic
// distribution every W_0 block along dimension 0 is such a stretch, and
// so is the trailing partial block of a ragged dimension 0; an
// odometer steps over the dimensions above 0. Next yields the runs in
// local order, so each run starts where the previous one ended in the
// local array. A walk does no division and no allocation per run, and
// the copy loops built on it (Scatter, Gather, their per-rank and
// ragged forms, and the vector copies) move whole runs with copy.
//
// The same walker serves a uniform Layout, a ragged GeneralLayout and
// a 1-D VectorDist: all three are block-cyclic, and a dimension's
// local extent (Dim.LocalLenAt) is the only thing raggedness changes.
type RunWalker struct {
	w0, s0, l0 int       // dimension 0: block size W_0, tile size S_0, local extent
	first      int       // global index of local index 0 along dimension 0
	hi         []walkDim // the odometer over dimensions >= 1
	local      int       // local offset of the next run
	row        int       // global position of the current row (dimension-0 index 0)
	t, g       int       // local and global dimension-0 index of the next run
	done       bool
}

// walkDim is one odometer digit: a dimension above 0.
type walkDim struct {
	l, n   int // local index and local extent
	k, w   int // offset in the current block and block size
	cur    int // global position contribution at local index l
	base   int // contribution at local index 0
	stride int // row-major global stride: the product of the lower extents
	jump   int // (S - W + 1) * stride: the step into the next block
}

// newRunWalker starts a walk over the local array of the processor
// with the given linear rank (dimension 0's grid coordinate fastest).
func newRunWalker(dims []Dim, rank int) RunWalker {
	procs := 1
	for _, d := range dims {
		procs *= d.P
	}
	if rank < 0 || rank >= procs {
		panic(fmt.Sprintf("dist: rank %d out of range [0,%d)", rank, procs))
	}
	var w RunWalker
	stride := 1
	for i, d := range dims {
		c := rank % d.P
		rank /= d.P
		n := d.LocalLenAt(c)
		if n == 0 {
			w.done = true
		}
		if i == 0 {
			w.w0, w.s0, w.l0, w.first = d.W, d.S(), n, c*d.W
		} else {
			base := c * d.W * stride
			w.hi = append(w.hi, walkDim{n: n, w: d.W, cur: base, base: base, stride: stride, jump: (d.S() - d.W + 1) * stride})
			w.row += base
		}
		stride *= d.N
	}
	w.g = w.first
	return w
}

// Runs walks processor rank's local array under the layout.
func (l *Layout) Runs(rank int) RunWalker { return newRunWalker(l.Dims, rank) }

// Next returns the next run: its offset in the local array, the global
// row-major position of its first element and its length n >= 1. ok is
// false once the local array is exhausted.
func (w *RunWalker) Next() (local, global, n int, ok bool) {
	if w.done {
		return 0, 0, 0, false
	}
	if w.t == w.l0 {
		if !w.step() {
			w.done = true
			return 0, 0, 0, false
		}
		w.t, w.g = 0, w.first
	}
	n = min(w.w0, w.l0-w.t)
	local, global = w.local, w.row+w.g
	w.local += n
	w.t += n
	w.g += w.s0
	return local, global, n, true
}

// step advances the odometer to the next row (the next combination of
// local indices above dimension 0); it reports false after the last.
func (w *RunWalker) step() bool {
	for i := range w.hi {
		h := &w.hi[i]
		if h.l++; h.l < h.n {
			d := h.stride
			if h.k++; h.k == h.w {
				h.k, d = 0, h.jump
			}
			h.cur += d
			w.row += d
			return true
		}
		w.row -= h.cur - h.base
		h.l, h.k, h.cur = 0, 0, h.base
	}
	return false
}

// scatterRuns copies a walk's runs from the global array into local.
func scatterRuns[T any](w RunWalker, global, local []T) {
	for off, pos, n, ok := w.Next(); ok; off, pos, n, ok = w.Next() {
		copy(local[off:off+n], global[pos:pos+n])
	}
}

// gatherRuns copies a walk's runs from local into the global array.
func gatherRuns[T any](w RunWalker, local, global []T) {
	for off, pos, n, ok := w.Next(); ok; off, pos, n, ok = w.Next() {
		copy(global[pos:pos+n], local[off:off+n])
	}
}

// ScatterRank copies processor rank's elements of the flat row-major
// global array into local, its local array in local row-major order.
func ScatterRank[T any](l *Layout, rank int, global, local []T) {
	if len(global) != l.GlobalSize() || len(local) != l.LocalSize() {
		panic(fmt.Sprintf("dist: ScatterRank buffers of %d and %d elements, layout needs %d and %d",
			len(global), len(local), l.GlobalSize(), l.LocalSize()))
	}
	scatterRuns(l.Runs(rank), global, local)
}

// GatherRank writes processor rank's local array into its positions of
// the flat row-major global array. Distinct ranks write disjoint
// positions, so the ranks of one machine may gather concurrently.
func GatherRank[T any](l *Layout, rank int, local, global []T) {
	if len(global) != l.GlobalSize() || len(local) != l.LocalSize() {
		panic(fmt.Sprintf("dist: GatherRank buffers of %d and %d elements, layout needs %d and %d",
			len(global), len(local), l.GlobalSize(), l.LocalSize()))
	}
	gatherRuns(l.Runs(rank), local, global)
}

// ScatterVector copies processor rank's elements of a global vector
// distributed by v (UNPACK's input vector) into local.
func ScatterVector[T any](v VectorDist, rank int, global, local []T) {
	if len(global) != v.Size || len(local) != v.LocalLen(rank) {
		panic(fmt.Sprintf("dist: ScatterVector buffers of %d and %d elements, distribution needs %d and %d",
			len(global), len(local), v.Size, v.LocalLen(rank)))
	}
	scatterRuns(v.runs(rank), global, local)
}

// GatherVector writes processor rank's local part of a vector
// distributed by v (PACK's result) into the global vector. Distinct
// ranks write disjoint positions.
func GatherVector[T any](v VectorDist, rank int, local, global []T) {
	if len(global) != v.Size || len(local) != v.LocalLen(rank) {
		panic(fmt.Sprintf("dist: GatherVector buffers of %d and %d elements, distribution needs %d and %d",
			len(global), len(local), v.Size, v.LocalLen(rank)))
	}
	gatherRuns(v.runs(rank), local, global)
}
