package ranking

import (
	"fmt"
	"math/rand"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// refScan is the counting scan as it was first written: one branch per
// mask element and two divisions per selected element to find its
// slice. It stays as the reference the bitset scan is compared against.
// ps0 must be zeroed.
func refScan(l *dist.Layout, mask []bool, ps0 []int) (localTrue int) {
	l0, w0, t0 := l.Dims[0].L(), l.Dims[0].W, l.Dims[0].T()
	for off, sel := range mask {
		if !sel {
			continue
		}
		rest := off / l0
		slice := rest*t0 + (off%l0)/w0
		ps0[slice]++
		localTrue++
	}
	return localTrue
}

// chargeLog forwards every call to the wrapped endpoint and records the
// op count of every Charge, in call order.
type chargeLog struct {
	transport.Endpoint
	ops []int
}

func (c *chargeLog) Charge(n int) {
	c.ops = append(c.ops, n)
	c.Endpoint.Charge(n)
}

// scanLayouts are the kernel-equivalence layouts: W_0 in {1, 3, 64,
// 100} (3 and 100 make slices straddle bitset words), rank 1 and 2.
func scanLayouts() []*dist.Layout {
	var out []*dist.Layout
	for _, w0 := range []int{1, 3, 64, 100} {
		d0 := dist.Dim{N: 2 * 8 * w0, P: 2, W: w0}
		out = append(out,
			dist.MustLayout(d0),
			dist.MustLayout(d0, dist.Dim{N: 6, P: 2, W: 1}))
	}
	return out
}

var kernelDensities = []float64{0, 0.1, 0.5, 0.9, 1}

func randomBools(rng *rand.Rand, n int, density float64) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = rng.Float64() < density
	}
	return m
}

// TestCountSlicesMatchesReference pins the bitset scan to the branchy
// one: identical PS_0 and LocalTrue on every rank, from countSliceBits
// and from Rank, and Rank's two scan charges (one read per mask
// element, one counter increment per selected element) are unchanged.
func TestCountSlicesMatchesReference(t *testing.T) {
	for _, l := range scanLayouts() {
		for _, density := range kernelDensities {
			name := fmt.Sprintf("%v/d=%.1f", l, density)
			masks := make([][]bool, l.Procs())
			for r := range masks {
				masks[r] = randomBools(rand.New(rand.NewSource(int64(7+r))), l.LocalSize(), density)
			}
			m := sim.MustNew(sim.Config{Procs: l.Procs()})
			err := m.Run(func(p *sim.Proc) {
				mask := masks[p.Rank()]
				want := make([]int, l.Slices())
				wantTrue := refScan(l, mask, want)
				ps0 := make([]int, len(want))
				if got := countSliceBits(bitsOf(mask), l.Dims[0].W, ps0); got != wantTrue {
					t.Errorf("%s rank %d: countSliceBits = %d, reference %d", name, p.Rank(), got, wantTrue)
				}
				if !equalInts(ps0, want) {
					t.Errorf("%s rank %d: PS_0 = %v, reference %v", name, p.Rank(), ps0, want)
				}
				log := &chargeLog{Endpoint: p}
				res, err := Rank(log, l, mask, Options{})
				if err != nil {
					panic(err)
				}
				if !equalInts(res.PSc, want) || res.LocalTrue != wantTrue {
					t.Errorf("%s rank %d: Rank PS_c %v / E %d, reference %v / %d", name, p.Rank(), res.PSc, res.LocalTrue, want, wantTrue)
				}
				if len(log.ops) < 2 || log.ops[0] != len(mask) || log.ops[1] != wantTrue {
					t.Errorf("%s rank %d: scan charges %v, want [%d %d ...]", name, p.Rank(), log.ops, len(mask), wantTrue)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// bitsOf packs a mask into the bitset layout one element at a time,
// element i at bit i%64 of word i/64.
func bitsOf(m []bool) []uint64 {
	sel := make([]uint64, (len(m)+63)/64)
	for i, b := range m {
		if b {
			sel[i/64] |= 1 << (i % 64)
		}
	}
	return sel
}

// BenchmarkKernelScan times the compact schemes' initial scan over one
// rank's mask of 2^19 elements (a P=2 rank of a 2^20-element array):
// the bitset scan, with and without packing the mask into words first
// (mask.Bits, which every call pays once), against the branchy
// reference, in ns per mask element. Every variant zeroes PS_0 first,
// as Rank's allocation does.
func BenchmarkKernelScan(b *testing.B) {
	const n = 1 << 19
	for _, w0 := range []int{1, 64} {
		l := dist.MustLayout(dist.Dim{N: 2 * n, P: 2, W: w0})
		for _, density := range []float64{0.1, 0.5, 0.9} {
			m := randomBools(rand.New(rand.NewSource(1)), n, density)
			sel := bitsOf(m)
			ps0 := make([]int, l.Slices())
			variants := []struct {
				name string
				scan func()
			}{
				{"branchy", func() { clear(ps0); refScan(l, m, ps0) }},
				{"bitset", func() { clear(ps0); countSliceBits(sel, w0, ps0) }},
				{"bitset+pack", func() { clear(ps0); countSliceBits(mask.Bits(m), w0, ps0) }},
			}
			for _, v := range variants {
				b.Run(fmt.Sprintf("w0=%d/d=%.1f/%s", w0, density, v.name), func(b *testing.B) {
					for b.Loop() {
						v.scan()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
				})
			}
		}
	}
}
