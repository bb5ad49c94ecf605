package mask

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"packunpack/internal/dist"
)

func TestRandomDensityConverges(t *testing.T) {
	for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
		g := NewRandom(density, 99, 100000)
		count := Count(g, 100000)
		got := float64(count) / 100000
		if math.Abs(got-density) > 0.01 {
			t.Errorf("density %.2f: measured %.4f", density, got)
		}
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	g1 := NewRandom(0.5, 7, 64, 64)
	g2 := NewRandom(0.5, 7, 64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if g1.At([]int{i, j}) != g2.At([]int{i, j}) {
				t.Fatalf("non-deterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	g1 := NewRandom(0.5, 1, 4096)
	g2 := NewRandom(0.5, 2, 4096)
	same := 0
	for i := 0; i < 4096; i++ {
		if g1.At([]int{i}) == g2.At([]int{i}) {
			same++
		}
	}
	if same > 4096*3/4 || same < 4096/4 {
		t.Fatalf("seeds 1 and 2 agree on %d/4096 elements; masks look correlated", same)
	}
}

func TestRandomIsDistributionIndependent(t *testing.T) {
	// The mask value depends only on the global index, so two layouts
	// of the same array see the same global mask.
	g := NewRandom(0.4, 3, 48)
	l1 := dist.MustLayout(dist.Dim{N: 48, P: 4, W: 1})
	l2 := dist.MustLayout(dist.Dim{N: 48, P: 2, W: 12})
	m1 := FillGlobal(l1, g)
	m2 := FillGlobal(l2, g)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("global mask differs at %d", i)
		}
	}
}

func TestFirstHalf(t *testing.T) {
	g := FirstHalf{N: 10}
	for i := 0; i < 10; i++ {
		want := i < 5
		if got := g.At([]int{i}); got != want {
			t.Errorf("FirstHalf.At(%d) = %v", i, got)
		}
	}
	if Count(g, 10) != 5 {
		t.Error("FirstHalf count wrong")
	}
}

func TestUpperTriangle(t *testing.T) {
	g := UpperTriangle{}
	n := 8
	// Count of strict upper triangle in n x n: n(n-1)/2.
	if got, want := Count(g, n, n), n*(n-1)/2; got != want {
		t.Errorf("UpperTriangle count = %d, want %d", got, want)
	}
	if g.At([]int{3, 3}) {
		t.Error("diagonal should be false")
	}
	if !g.At([]int{2, 5}) {
		t.Error("(i0=2, i1=5) should be true")
	}
	if g.At([]int{5, 2}) {
		t.Error("(i0=5, i1=2) should be false")
	}
}

func TestFullEmpty(t *testing.T) {
	if Count(Full{}, 6, 7) != 42 {
		t.Error("Full count wrong")
	}
	if Count(Empty{}, 6, 7) != 0 {
		t.Error("Empty count wrong")
	}
}

// TestFillLocalMatchesFillGlobal is the core property: scattering the
// global mask must equal filling locally on every processor, for every
// layout.
func TestFillLocalMatchesFillGlobal(t *testing.T) {
	layouts := []*dist.Layout{
		dist.MustLayout(dist.Dim{N: 32, P: 4, W: 2}),
		dist.MustLayout(dist.Dim{N: 32, P: 4, W: 1}),
		dist.MustLayout(dist.Dim{N: 8, P: 2, W: 2}, dist.Dim{N: 6, P: 3, W: 1}),
		dist.MustLayout(dist.Dim{N: 4, P: 2, W: 1}, dist.Dim{N: 4, P: 1, W: 2}, dist.Dim{N: 4, P: 2, W: 2}),
	}
	for _, l := range layouts {
		shape := make([]int, l.Rank())
		for i, d := range l.Dims {
			shape[i] = d.N
		}
		gens := []Gen{NewRandom(0.5, 11, shape...), Full{}, Empty{}}
		if l.Rank() == 2 {
			gens = append(gens, UpperTriangle{})
		}
		for _, g := range gens {
			want := dist.Scatter(l, FillGlobal(l, g))
			for rank := 0; rank < l.Procs(); rank++ {
				got := FillLocal(l, rank, g)
				if len(got) != len(want[rank]) {
					t.Fatalf("%v %#v rank %d: length %d vs %d", l, g, rank, len(got), len(want[rank]))
				}
				for off := range got {
					if got[off] != want[rank][off] {
						t.Fatalf("%v %#v rank %d: mismatch at local %d", l, g, rank, off)
					}
				}
			}
		}
	}
}

func TestSplitmix64Mixes(t *testing.T) {
	// Adjacent inputs must produce well-spread outputs (sanity, not a
	// statistical test): check no collisions over a small range and
	// that bit 0 flips about half the time.
	seen := map[uint64]bool{}
	flips := 0
	prev := splitmix64(0)
	for i := uint64(1); i < 4096; i++ {
		h := splitmix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
		if h&1 != prev&1 {
			flips++
		}
		prev = h
	}
	if flips < 1500 || flips > 2600 {
		t.Fatalf("low bit flipped %d/4095 times", flips)
	}
}

func TestCountMatchesFillGlobal(t *testing.T) {
	f := func(seed uint64, dpct uint8) bool {
		density := float64(dpct%101) / 100
		l := dist.MustLayout(dist.Dim{N: 24, P: 2, W: 3}, dist.Dim{N: 10, P: 2, W: 5})
		g := NewRandom(density, seed, 24, 10)
		gm := FillGlobal(l, g)
		n := 0
		for _, b := range gm {
			if b {
				n++
			}
		}
		return n == Count(g, 24, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFillLocalIntoReusesBuffer verifies the sweep-harness contract:
// a large-enough buffer is refilled in place (same backing array), a
// too-small one is replaced, and both produce FillLocal's values.
func TestFillLocalIntoReusesBuffer(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 256, P: 4, W: 8})
	g := NewRandom(0.5, 3, 256)
	want := FillLocal(l, 1, g)

	buf := make([]bool, 0, l.LocalSize()+10)
	got := FillLocalInto(buf, l, 1, g)
	if &got[0] != &buf[:1][0] {
		t.Error("FillLocalInto allocated despite sufficient capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused fill differs from FillLocal at %d", i)
		}
	}

	small := make([]bool, 1)
	got = FillLocalInto(small, l, 1, g)
	if len(got) != l.LocalSize() {
		t.Fatalf("grown fill has %d elements, want %d", len(got), l.LocalSize())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grown fill differs from FillLocal at %d", i)
		}
	}
}

// naiveBits is Bits' reference: a one-element-at-a-time packer.
func naiveBits(m []bool) []uint64 {
	sel := make([]uint64, (len(m)+63)/64)
	for i, b := range m {
		if b {
			sel[i/64] |= 1 << (i % 64)
		}
	}
	return sel
}

// TestBitsMatchesNaivePacking pins Bits to a one-element-at-a-time
// packer: every pattern of eight elements at every byte of a word, and
// random masks of every length from 0 to 200 (ending inside, at and
// past word boundaries) that start at offsets 0 to 7 of their backing
// array, so full words are read from unaligned addresses too (under
// -race, checkptr checks each *[64]byte conversion).
func TestBitsMatchesNaivePacking(t *testing.T) {
	for v := 0; v < 256; v++ {
		for at := 0; at < 64; at += 8 {
			m := make([]bool, 64)
			for i := 0; i < 8; i++ {
				m[at+i] = v>>i&1 == 1
			}
			if got, want := Bits(m), naiveBits(m); !slices.Equal(got, want) {
				t.Fatalf("Bits(%v) = %x, want %x", m, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	backing := make([]bool, 7+200)
	for i := range backing {
		backing[i] = rng.Intn(2) == 1
	}
	for k := 0; k < 8; k++ {
		for n := 0; n <= 200; n++ {
			m := backing[k : k+n]
			if got, want := Bits(m), naiveBits(m); !slices.Equal(got, want) {
				t.Fatalf("Bits(m[%d:%d]) = %x, want %x", k, k+n, got, want)
			}
		}
	}
}

// FuzzBits compares Bits with naiveBits on any mask (byte b becomes
// the element b != 0) from any start offset of its backing array.
func FuzzBits(f *testing.F) {
	f.Add(make([]byte, 64), uint(0))
	f.Add([]byte("\x01\x00\x01\x01\x00\x00\x00\x01\x01"), uint(3))
	f.Add(make([]byte, 200), uint(5))
	f.Fuzz(func(t *testing.T, data []byte, start uint) {
		backing := make([]bool, len(data))
		for i, b := range data {
			backing[i] = b != 0
		}
		m := backing[start%uint(len(backing)+1):]
		if got, want := Bits(m), naiveBits(m); !slices.Equal(got, want) {
			t.Fatalf("Bits(%v) = %x, want %x", m, got, want)
		}
	})
}
