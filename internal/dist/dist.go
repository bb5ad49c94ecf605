// Package dist implements the HPF-style block-cyclic data distribution
// arithmetic the paper assumes (Section 3).
//
// A rank-d array A of shape (N_{d-1}, ..., N_1, N_0) is distributed over
// a logical processor grid (P_{d-1}, ..., P_0) with block sizes
// (W_{d-1}, ..., W_0): along dimension i, global indices are grouped
// into blocks of W_i consecutive elements, and block b lives on the
// processor with coordinate b mod P_i. The paper's derived quantities:
//
//	L_i = N_i / P_i          local extent along dimension i
//	S_i = P_i * W_i          tile size (P_i consecutive blocks)
//	T_i = N_i / S_i = L_i/W_i  tiles = blocks per processor
//
// Indexing is row-major with dimension 0 fastest-varying, and all
// indices start from zero, matching the paper: the position of element
// A(i_{d-1},...,i_0) is sum_i i_i * prod_{k<i} N_k.
package dist

import (
	"fmt"
)

// Dim describes the distribution of one array dimension.
type Dim struct {
	N int // global extent
	P int // processors along this dimension
	W int // block size, 1 <= W <= N/P
}

// Validate checks the paper's divisibility assumptions for dimension i:
// P | N, W | (N/P) (hence P*W | N). The algorithms in this module rely
// on them just as the paper does "for the sake of simplicity".
func (d Dim) Validate() error {
	switch {
	case d.N <= 0:
		return fmt.Errorf("dist: N must be positive, got %d", d.N)
	case d.P <= 0:
		return fmt.Errorf("dist: P must be positive, got %d", d.P)
	case d.W <= 0:
		return fmt.Errorf("dist: W must be positive, got %d", d.W)
	case d.N%d.P != 0:
		return fmt.Errorf("dist: P=%d does not divide N=%d", d.P, d.N)
	case d.W > d.N/d.P:
		return fmt.Errorf("dist: W=%d exceeds local size N/P=%d", d.W, d.N/d.P)
	case (d.N/d.P)%d.W != 0:
		return fmt.Errorf("dist: W=%d does not divide local size N/P=%d", d.W, d.N/d.P)
	}
	return nil
}

// L returns the local extent N/P.
func (d Dim) L() int { return d.N / d.P }

// S returns the tile size P*W.
func (d Dim) S() int { return d.P * d.W }

// T returns the number of tiles N/(P*W), which equals the number of
// blocks each processor owns along this dimension.
func (d Dim) T() int { return d.N / (d.P * d.W) }

// Block returns true if the dimension is block-distributed (one block
// per processor, W = L).
func (d Dim) Block() bool { return d.W == d.L() }

// Cyclic returns true if the dimension is cyclically distributed (W=1).
func (d Dim) Cyclic() bool { return d.W == 1 }

// ToLocal maps a global index along this dimension to the owning
// processor coordinate and the local index on that processor.
func (d Dim) ToLocal(g int) (proc, local int) {
	b := g / d.W   // global block number
	proc = b % d.P // owner coordinate
	t := b / d.P   // tile number
	w := g % d.W   // offset within the block
	return proc, t*d.W + w
}

// ToGlobal maps (processor coordinate, local index) back to the global
// index. It is the inverse of ToLocal.
func (d Dim) ToGlobal(proc, local int) int {
	t := local / d.W // tile number
	w := local % d.W // offset within the block
	return t*d.S() + proc*d.W + w
}

// TileOf returns the tile number a local index belongs to (local/W).
func (d Dim) TileOf(local int) int { return local / d.W }

// Layout describes the distribution of a rank-d array over a logical
// processor grid. Dims[0] is dimension 0 (fastest-varying), matching
// the paper's (N_{d-1}, ..., N_1, N_0) notation read right to left.
type Layout struct {
	Dims []Dim
}

// NewLayout validates and builds a layout from per-dimension specs,
// given in order dimension 0 first.
func NewLayout(dims ...Dim) (*Layout, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dist: layout needs at least one dimension")
	}
	for i, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("dimension %d: %w", i, err)
		}
	}
	cp := make([]Dim, len(dims))
	copy(cp, dims)
	return &Layout{Dims: cp}, nil
}

// MustLayout is NewLayout for layouts known to be valid.
func MustLayout(dims ...Dim) *Layout {
	l, err := NewLayout(dims...)
	if err != nil {
		panic(err)
	}
	return l
}

// Rank returns the array rank d.
func (l *Layout) Rank() int { return len(l.Dims) }

// Procs returns the total processor count P = prod P_i.
func (l *Layout) Procs() int {
	p := 1
	for _, d := range l.Dims {
		p *= d.P
	}
	return p
}

// GlobalSize returns N = prod N_i.
func (l *Layout) GlobalSize() int {
	n := 1
	for _, d := range l.Dims {
		n *= d.N
	}
	return n
}

// LocalSize returns L = prod L_i, the number of elements per processor.
func (l *Layout) LocalSize() int {
	n := 1
	for _, d := range l.Dims {
		n *= d.L()
	}
	return n
}

// LocalShape returns (L_0, ..., L_{d-1}), dimension 0 first.
func (l *Layout) LocalShape() []int {
	s := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		s[i] = d.L()
	}
	return s
}

// GridShape returns (P_0, ..., P_{d-1}), dimension 0 first.
func (l *Layout) GridShape() []int {
	s := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		s[i] = d.P
	}
	return s
}

// Slices returns C, the number of W_0-sized slices per processor:
// (prod_{i>0} L_i) * T_0. The slice is the unit of the paper's local
// scans: W_0 contiguous local elements within one tile of dimension 0.
func (l *Layout) Slices() int {
	c := l.Dims[0].T()
	for _, d := range l.Dims[1:] {
		c *= d.L()
	}
	return c
}

// GridRank flattens processor-grid coordinates (coordinate for
// dimension 0 first) into a linear rank; dimension 0 varies fastest.
func (l *Layout) GridRank(coords []int) int {
	if len(coords) != len(l.Dims) {
		panic("dist: GridRank coords of wrong rank")
	}
	rank := 0
	stride := 1
	for i, d := range l.Dims {
		c := coords[i]
		if c < 0 || c >= d.P {
			panic(fmt.Sprintf("dist: coordinate %d out of range [0,%d)", c, d.P))
		}
		rank += c * stride
		stride *= d.P
	}
	return rank
}

// GridCoords is the inverse of GridRank.
func (l *Layout) GridCoords(rank int) []int {
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

// GlobalToLocal maps global array indices (dimension 0 first) to the
// owning processor rank and its flat local offset.
func (l *Layout) GlobalToLocal(global []int) (rank, local int) {
	if len(global) != len(l.Dims) {
		panic("dist: GlobalToLocal indices of wrong rank")
	}
	coords := make([]int, len(l.Dims))
	locals := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		coords[i], locals[i] = d.ToLocal(global[i])
	}
	return l.GridRank(coords), l.FlattenLocal(locals)
}

// LocalToGlobal maps (processor rank, flat local offset) to global
// array indices (dimension 0 first).
func (l *Layout) LocalToGlobal(rank, local int) []int {
	coords := l.GridCoords(rank)
	locals := l.UnflattenLocal(local)
	global := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		global[i] = d.ToGlobal(coords[i], locals[i])
	}
	return global
}

// FlattenLocal converts per-dimension local indices to a flat row-major
// offset (dimension 0 fastest).
func (l *Layout) FlattenLocal(locals []int) int {
	off := 0
	stride := 1
	for i, d := range l.Dims {
		li := locals[i]
		if li < 0 || li >= d.L() {
			panic(fmt.Sprintf("dist: local index %d out of range [0,%d)", li, d.L()))
		}
		off += li * stride
		stride *= d.L()
	}
	return off
}

// UnflattenLocal is the inverse of FlattenLocal.
func (l *Layout) UnflattenLocal(off int) []int {
	locals := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		locals[i] = off % d.L()
		off /= d.L()
	}
	return locals
}

// FlattenGlobal converts global indices (dimension 0 first) to the
// row-major global position used for ranking order.
func (l *Layout) FlattenGlobal(global []int) int {
	off := 0
	stride := 1
	for i, d := range l.Dims {
		gi := global[i]
		if gi < 0 || gi >= d.N {
			panic(fmt.Sprintf("dist: global index %d out of range [0,%d)", gi, d.N))
		}
		off += gi * stride
		stride *= d.N
	}
	return off
}

// UnflattenGlobal is the inverse of FlattenGlobal.
func (l *Layout) UnflattenGlobal(pos int) []int {
	global := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		global[i] = pos % d.N
		pos /= d.N
	}
	return global
}

// GlobalPosOwner maps a flat global row-major position directly to
// (owner rank, flat local offset): GlobalToLocal composed with
// UnflattenGlobal, with GridRank's and FlattenLocal's range checks, in
// one pass over the dimensions that allocates nothing.
func (l *Layout) GlobalPosOwner(pos int) (rank, local int) {
	rstride, lstride := 1, 1
	for _, d := range l.Dims {
		c, li := d.ToLocal(pos % d.N)
		pos /= d.N
		if c < 0 || c >= d.P {
			panic(fmt.Sprintf("dist: coordinate %d out of range [0,%d)", c, d.P))
		}
		if li < 0 || li >= d.L() {
			panic(fmt.Sprintf("dist: local index %d out of range [0,%d)", li, d.L()))
		}
		rank += c * rstride
		local += li * lstride
		rstride *= d.P
		lstride *= d.L()
	}
	return rank, local
}

// String renders the layout in HPF-like notation.
func (l *Layout) String() string {
	s := "["
	for i := len(l.Dims) - 1; i >= 0; i-- {
		d := l.Dims[i]
		s += fmt.Sprintf("%d:cyclic(%d)x%d", d.N, d.W, d.P)
		if i > 0 {
			s += ", "
		}
	}
	return s + "]"
}

// BlockVector describes the paper's fixed distribution for the result
// vector V of PACK (and the input vector of UNPACK): plain block
// partitioning of Size elements over P processors, with block size
// ceil(Size/P). The final processors may own fewer (or zero) elements.
type BlockVector struct {
	Size int
	P    int
}

// NewBlockVector builds a block vector descriptor. Size may be zero
// (an empty mask packs to an empty vector).
func NewBlockVector(size, p int) (BlockVector, error) {
	if size < 0 {
		return BlockVector{}, fmt.Errorf("dist: vector size must be >= 0, got %d", size)
	}
	if p <= 0 {
		return BlockVector{}, fmt.Errorf("dist: vector P must be positive, got %d", p)
	}
	return BlockVector{Size: size, P: p}, nil
}

// BlockSize returns ceil(Size/P), the elements per processor (except
// possibly the last non-empty one). Zero for an empty vector.
func (v BlockVector) BlockSize() int {
	if v.Size == 0 {
		return 0
	}
	return (v.Size + v.P - 1) / v.P
}

// Owner returns the processor owning global vector index r and the
// local index there.
func (v BlockVector) Owner(r int) (rank, local int) {
	if r < 0 || r >= v.Size {
		panic(fmt.Sprintf("dist: vector index %d out of range [0,%d)", r, v.Size))
	}
	b := v.BlockSize()
	return r / b, r % b
}

// LocalLen returns the number of vector elements processor rank owns.
func (v BlockVector) LocalLen(rank int) int {
	b := v.BlockSize()
	if b == 0 {
		return 0
	}
	start := rank * b
	if start >= v.Size {
		return 0
	}
	end := start + b
	if end > v.Size {
		end = v.Size
	}
	return end - start
}

// Start returns the first global index owned by rank (meaningful only
// when LocalLen(rank) > 0).
func (v BlockVector) Start(rank int) int { return rank * v.BlockSize() }
