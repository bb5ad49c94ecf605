package main

// The benchmark's own seeded input generators. The program under test
// only ever sees the arrays and masks made here.

import pu "packunpack"

// rng is a splitmix64 stream: tiny, fast and identical on every host.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// paperDensities are the densities of the paper's random masks
// (internal/bench maskSpecs, full size): 10% to 90% in steps of 20%.
var paperDensities = []float64{0.10, 0.30, 0.50, 0.70, 0.90}

// randomMask is the paper's random mask through the repository's own
// generator (internal/mask via packunpack.RandomMask): every element is
// selected independently with probability density, as a hash of its
// global position and a mask seed drawn from r.
func randomMask(r *rng, l *pu.Layout, density float64) []bool {
	shape := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		shape[i] = d.N
	}
	return pu.FillGlobalMask(l, pu.RandomMask(density, r.next(), shape...))
}

// valuesArray returns n distinct-looking values (so a misplaced element
// cannot compare equal by accident).
func valuesArray(r *rng, n int, sign int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = sign * int(r.next()>>20)
	}
	return a
}

// perm returns a seeded permutation of [0, n).
func perm(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
