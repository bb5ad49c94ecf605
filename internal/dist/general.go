package dist

import "fmt"

// This file relaxes the paper's "for the sake of simplicity" divisibility
// assumptions (P_i | N_i, W_i | L_i). The block-cyclic index formulas of
// Dim.ToLocal/ToGlobal are already correct for arbitrary extents — what
// breaks without the assumptions is only the *uniformity* of the local
// arrays (processors own different numbers of elements, trailing blocks
// are partial), which the ranking algorithm needs. The pack package
// recovers uniformity by padding each dimension up to the next multiple
// of the tile size S_i = P_i*W_i and masking the padding out; padding
// sits at the end of every dimension, so the row-major order — and
// hence every rank — of the real elements is unchanged.

// ValidateRelaxed checks only that the dimension is well-formed
// (non-negative extent, positive processors and block size), without
// the paper's divisibility assumptions. A zero extent is legal here —
// Fortran 90 allows zero-extent dimensions, under which every
// processor owns nothing and PACK/UNPACK degenerate to empty results —
// though not in the strict Validate.
func (d Dim) ValidateRelaxed() error {
	switch {
	case d.N < 0:
		return fmt.Errorf("dist: N must be non-negative, got %d", d.N)
	case d.P <= 0:
		return fmt.Errorf("dist: P must be positive, got %d", d.P)
	case d.W <= 0:
		return fmt.Errorf("dist: W must be positive, got %d", d.W)
	}
	return nil
}

// LocalLenAt returns the number of indices of this dimension owned by
// processor coordinate coord, valid for arbitrary (non-divisible)
// extents.
func (d Dim) LocalLenAt(coord int) int {
	fullBlocks := d.N / d.W
	rem := d.N % d.W
	n := (fullBlocks - coord + d.P - 1) / d.P
	if n < 0 {
		n = 0
	}
	n *= d.W
	if rem > 0 && fullBlocks%d.P == coord {
		n += rem
	}
	return n
}

// Padded returns the dimension with its extent rounded up to the next
// multiple of the tile size S = P*W. The padded dimension always
// satisfies the paper's divisibility assumptions, and every index of
// the original dimension keeps its owner and local index. A
// zero-extent dimension pads to one full tile (all padding, every
// element masked out), so the strict validation downstream holds.
func (d Dim) Padded() Dim {
	s := d.S()
	n := (d.N + s - 1) / s * s
	if n == 0 {
		n = s
	}
	return Dim{N: n, P: d.P, W: d.W}
}

// GeneralLayout describes a rank-d array distributed block-cyclically
// with arbitrary extents (no divisibility requirements). Local arrays
// are ragged: their shape depends on the processor's grid coordinates.
type GeneralLayout struct {
	Dims []Dim
}

// NewGeneralLayout validates (relaxed rules) and builds a general
// layout, dimension 0 first.
func NewGeneralLayout(dims ...Dim) (*GeneralLayout, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dist: layout needs at least one dimension")
	}
	for i, d := range dims {
		if err := d.ValidateRelaxed(); err != nil {
			return nil, fmt.Errorf("dimension %d: %w", i, err)
		}
	}
	cp := make([]Dim, len(dims))
	copy(cp, dims)
	return &GeneralLayout{Dims: cp}, nil
}

// MustGeneralLayout is NewGeneralLayout for layouts known to be valid.
func MustGeneralLayout(dims ...Dim) *GeneralLayout {
	l, err := NewGeneralLayout(dims...)
	if err != nil {
		panic(err)
	}
	return l
}

// Rank returns the array rank d.
func (l *GeneralLayout) Rank() int { return len(l.Dims) }

// Procs returns the total processor count.
func (l *GeneralLayout) Procs() int {
	p := 1
	for _, d := range l.Dims {
		p *= d.P
	}
	return p
}

// GlobalSize returns N = prod N_i.
func (l *GeneralLayout) GlobalSize() int {
	n := 1
	for _, d := range l.Dims {
		n *= d.N
	}
	return n
}

// Padded returns the smallest uniform Layout containing this one:
// every dimension rounded up to a tile multiple. The result always
// passes the strict NewLayout validation.
func (l *GeneralLayout) Padded() *Layout {
	dims := make([]Dim, len(l.Dims))
	for i, d := range l.Dims {
		dims[i] = d.Padded()
	}
	return MustLayout(dims...)
}

// GridCoords converts a linear rank to grid coordinates (dimension 0
// fastest), as for Layout.
func (l *GeneralLayout) GridCoords(rank int) []int {
	if rank < 0 || rank >= l.Procs() {
		panic(fmt.Sprintf("dist: rank %d out of range [0,%d)", rank, l.Procs()))
	}
	coords := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		coords[i] = rank % d.P
		rank /= d.P
	}
	return coords
}

// LocalShapeAt returns the ragged local shape (dimension 0 first) of
// the processor with the given rank.
func (l *GeneralLayout) LocalShapeAt(rank int) []int {
	coords := l.GridCoords(rank)
	shape := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		shape[i] = d.LocalLenAt(coords[i])
	}
	return shape
}

// LocalSizeAt returns the number of elements the processor with the
// given rank owns.
func (l *GeneralLayout) LocalSizeAt(rank int) int {
	n := 1
	for _, s := range l.LocalShapeAt(rank) {
		n *= s
	}
	return n
}

// GlobalToLocal maps global indices (dimension 0 first) to (owner
// rank, flat ragged-local offset). The flat offset is row-major over
// the owner's ragged local shape.
func (l *GeneralLayout) GlobalToLocal(global []int) (rank, local int) {
	if len(global) != len(l.Dims) {
		panic("dist: GlobalToLocal indices of wrong rank")
	}
	coords := make([]int, len(l.Dims))
	locals := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		coords[i], locals[i] = d.ToLocal(global[i])
	}
	rank = 0
	stride := 1
	for i, d := range l.Dims {
		rank += coords[i] * stride
		stride *= d.P
	}
	local = 0
	stride = 1
	for i, d := range l.Dims {
		local += locals[i] * stride
		stride *= d.LocalLenAt(coords[i])
	}
	return rank, local
}

// runs walks processor rank's ragged local array.
func (l *GeneralLayout) runs(rank int) RunWalker { return newRunWalker(l.Dims, rank) }

// ScatterGeneral splits a flat row-major global array into ragged
// per-processor local arrays.
func ScatterGeneral[T any](l *GeneralLayout, global []T) [][]T {
	if len(global) != l.GlobalSize() {
		panic("dist: ScatterGeneral global buffer of wrong size")
	}
	out := make([][]T, l.Procs())
	for r := range out {
		out[r] = make([]T, l.LocalSizeAt(r))
		scatterRuns(l.runs(r), global, out[r])
	}
	return out
}

// GatherGeneral is the inverse of ScatterGeneral.
func GatherGeneral[T any](l *GeneralLayout, locals [][]T) []T {
	if len(locals) != l.Procs() {
		panic("dist: GatherGeneral needs one local buffer per processor")
	}
	global := make([]T, l.GlobalSize())
	for r, local := range locals {
		if len(local) != l.LocalSizeAt(r) {
			panic("dist: GatherGeneral local buffer of wrong size")
		}
		gatherRuns(l.runs(r), local, global)
	}
	return global
}
