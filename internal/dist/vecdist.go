package dist

import "fmt"

// VectorDist describes a general block-cyclic distribution of a 1-D
// vector of Size elements over P processors with block size W, without
// any divisibility requirements: global index r belongs to block r/W,
// block b lives on processor b mod P, and the trailing block may be
// partial.
//
// The paper fixes the PACK result vector (and the UNPACK input vector)
// to block distribution — VectorDist with W = ceil(Size/P) — but
// Section 6.2 observes that the compact message scheme degrades when
// the result vector is distributed with smaller blocks ("the number of
// segments will increase as the block size of the result vector
// decreases"). This type makes that configurable so the effect can be
// measured.
type VectorDist struct {
	Size int
	P    int
	W    int
}

// NewVectorDist validates and builds a vector distribution. w == 0
// selects the paper's default block distribution (W = ceil(Size/P);
// a singleton block for an empty vector).
func NewVectorDist(size, p, w int) (VectorDist, error) {
	if size < 0 {
		return VectorDist{}, fmt.Errorf("dist: vector size must be >= 0, got %d", size)
	}
	if p <= 0 {
		return VectorDist{}, fmt.Errorf("dist: vector P must be positive, got %d", p)
	}
	if w < 0 {
		return VectorDist{}, fmt.Errorf("dist: vector W must be >= 0, got %d", w)
	}
	if w == 0 {
		w = (size + p - 1) / p
		if w == 0 {
			w = 1
		}
	}
	return VectorDist{Size: size, P: p, W: w}, nil
}

// Block reports whether the distribution is the paper's default block
// partitioning (every processor owns at most one block).
func (v VectorDist) Block() bool { return v.W*v.P >= v.Size }

// Owner returns the processor owning global index r and the local
// index there.
func (v VectorDist) Owner(r int) (rank, local int) {
	if r < 0 || r >= v.Size {
		panic(fmt.Sprintf("dist: vector index %d out of range [0,%d)", r, v.Size))
	}
	b := r / v.W
	return b % v.P, (b/v.P)*v.W + r%v.W
}

// ToGlobal maps (rank, local index) back to the global index.
func (v VectorDist) ToGlobal(rank, local int) int {
	tile := local / v.W
	return (tile*v.P+rank)*v.W + local%v.W
}

// LocalLen returns the number of elements processor rank owns.
func (v VectorDist) LocalLen(rank int) int {
	if v.Size == 0 {
		return 0
	}
	fullBlocks := v.Size / v.W
	rem := v.Size % v.W
	// Processor rank owns blocks rank, rank+P, rank+2P, ... Among the
	// fullBlocks complete blocks, it owns:
	n := (fullBlocks - rank + v.P - 1) / v.P * v.W
	if n < 0 {
		n = 0
	}
	// The trailing partial block (index fullBlocks) adds rem elements
	// to its owner.
	if rem > 0 && fullBlocks%v.P == rank {
		n += rem
	}
	return n
}

// BlockRunEnd returns the smallest global index s > r such that
// indices r and s live on different processors — i.e. the exclusive
// end of the contiguous same-owner run containing r. Consecutive ranks
// in [r, BlockRunEnd(r)) form a single segment of the compact message
// scheme.
func (v VectorDist) BlockRunEnd(r int) int {
	end := (r/v.W + 1) * v.W
	if end > v.Size {
		end = v.Size
	}
	return end
}

// Cursor follows a walk over the vector's global indices: Seek divides
// only when the walk leaves the current block for one that is not the
// next, so a walk in rising order divides once. Segment walks (the
// compact schemes' compose, decomposition and serving) seek every
// segment's base rank, which is where Owner's four divisions per
// segment went.
type Cursor struct {
	v          VectorDist
	start, end int // the current block's global range [start, end)
	rank, base int // its owner and the owner's local index of start
}

// Cursor returns a cursor that holds no block yet.
func (v VectorDist) Cursor() Cursor { return Cursor{v: v, start: 1} }

// Seek returns the processor owning global index r, the local index
// there, and BlockRunEnd(r), the end of r's same-owner run.
func (c *Cursor) Seek(r int) (rank, local, end int) {
	if r < c.start || r >= c.end {
		c.enter(r)
	}
	return c.rank, c.base + r - c.start, c.end
}

// enter moves the cursor to the block holding r: one step when that
// block follows the current one, four divisions otherwise.
func (c *Cursor) enter(r int) {
	v := c.v
	if r < 0 || r >= v.Size {
		panic(fmt.Sprintf("dist: vector index %d out of range [0,%d)", r, v.Size))
	}
	if c.start <= c.end && r >= c.end && r < c.end+v.W {
		c.start = c.end
		if c.rank++; c.rank == v.P {
			c.rank, c.base = 0, c.base+v.W
		}
	} else {
		b := r / v.W
		c.start, c.rank, c.base = b*v.W, b%v.P, (b/v.P)*v.W
	}
	c.end = min(c.start+v.W, v.Size)
}

// runs walks processor rank's local part of the vector: the vector is
// the 1-D block-cyclic array Dim{Size, P, W}, so its runs are its
// blocks.
func (v VectorDist) runs(rank int) RunWalker {
	return newRunWalker([]Dim{{N: v.Size, P: v.P, W: v.W}}, rank)
}
