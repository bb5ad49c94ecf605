// Package mask generates the logical mask arrays driving PACK/UNPACK.
//
// Every generator is a pure function of the global element indices (and
// a seed), so each processor of the emulated machine can fill its local
// portion of the mask without communication, and repeated runs see
// identical masks. The paper's experiments use five random masks with
// densities 10%..90% and one deterministic "LT" mask (first half true
// in 1-D; strict upper triangle in 2-D).
package mask

import "packunpack/internal/dist"

// Gen decides the mask value for a global index vector (dimension 0
// first).
type Gen interface {
	At(global []int) bool
}

// Random is a pseudo-random mask where each element is independently
// true with probability Density. The value is a hash of the global
// row-major position and the seed, so it is distribution-independent.
type Random struct {
	Density float64 // in [0, 1]
	Seed    uint64
	Shape   []int // global extents, dimension 0 first
}

// NewRandom builds a random mask generator for an array of the given
// global shape (dimension 0 first).
func NewRandom(density float64, seed uint64, shape ...int) Random {
	return Random{Density: density, Seed: seed, Shape: shape}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r Random) At(global []int) bool {
	pos := uint64(0)
	stride := uint64(1)
	for i, g := range global {
		pos += uint64(g) * stride
		stride *= uint64(r.Shape[i])
	}
	h := splitmix64(pos ^ splitmix64(r.Seed))
	// Top 53 bits as a uniform float in [0, 1).
	u := float64(h>>11) / (1 << 53)
	return u < r.Density
}

// FirstHalf is the paper's deterministic 1-D "LT" mask: true iff the
// global index is below N/2.
type FirstHalf struct {
	N int
}

func (f FirstHalf) At(global []int) bool { return global[0] < f.N/2 }

// UpperTriangle is the paper's deterministic 2-D "LT" mask: true iff
// the global index on dimension 1 is larger than that on dimension 0.
type UpperTriangle struct{}

func (UpperTriangle) At(global []int) bool { return global[1] > global[0] }

// Full and Empty are degenerate masks for edge-case tests.
type Full struct{}

func (Full) At([]int) bool { return true }

type Empty struct{}

func (Empty) At([]int) bool { return false }

// FillLocal evaluates the generator over processor rank's local portion
// of the layout, in local row-major order (dimension 0 fastest). The
// odometer walk keeps global coordinates incrementally, so filling is
// O(rank * L) without per-element allocation.
func FillLocal(l *dist.Layout, rank int, g Gen) []bool {
	return FillLocalInto(nil, l, rank, g)
}

// FillLocalInto is FillLocal writing into buf, which is grown only when
// its capacity is too small — sweeps that re-fill masks for many
// experiment points can recycle one buffer instead of allocating per
// run.
func FillLocalInto(buf []bool, l *dist.Layout, rank int, g Gen) []bool {
	d := l.Rank()
	coords := l.GridCoords(rank)
	locals := make([]int, d)
	global := make([]int, d)
	for i := 0; i < d; i++ {
		global[i] = l.Dims[i].ToGlobal(coords[i], 0)
	}
	if cap(buf) < l.LocalSize() {
		buf = make([]bool, l.LocalSize())
	}
	out := buf[:l.LocalSize()]
	for off := range out {
		out[off] = g.At(global)
		// Advance the local odometer and refresh global coordinates.
		for i := 0; i < d; i++ {
			locals[i]++
			if locals[i] < l.Dims[i].L() {
				if locals[i]%l.Dims[i].W == 0 {
					// Crossed into the next block: jump a tile.
					global[i] = l.Dims[i].ToGlobal(coords[i], locals[i])
				} else {
					global[i]++
				}
				break
			}
			locals[i] = 0
			global[i] = l.Dims[i].ToGlobal(coords[i], 0)
		}
	}
	return out
}

// FillGlobal evaluates the generator over the whole array in global
// row-major order (for sequential oracles).
func FillGlobal(l *dist.Layout, g Gen) []bool {
	d := l.Rank()
	global := make([]int, d)
	out := make([]bool, l.GlobalSize())
	for off := range out {
		out[off] = g.At(global)
		for i := 0; i < d; i++ {
			global[i]++
			if global[i] < l.Dims[i].N {
				break
			}
			global[i] = 0
		}
	}
	return out
}

// Count returns the number of true values a generator produces over a
// global shape (dimension 0 first) — the Size of the packed vector.
func Count(g Gen, shape ...int) int {
	d := len(shape)
	global := make([]int, d)
	total := 1
	for _, n := range shape {
		total *= n
	}
	count := 0
	for off := 0; off < total; off++ {
		if g.At(global) {
			count++
		}
		for i := 0; i < d; i++ {
			global[i]++
			if global[i] < shape[i] {
				break
			}
			global[i] = 0
		}
	}
	return count
}
