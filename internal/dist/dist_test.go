package dist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDimValidate(t *testing.T) {
	cases := []struct {
		d  Dim
		ok bool
	}{
		{Dim{N: 16, P: 4, W: 2}, true},
		{Dim{N: 16, P: 4, W: 4}, true},  // block
		{Dim{N: 16, P: 4, W: 1}, true},  // cyclic
		{Dim{N: 16, P: 1, W: 16}, true}, // serial dimension
		{Dim{N: 0, P: 4, W: 1}, false},
		{Dim{N: 16, P: 0, W: 1}, false},
		{Dim{N: 16, P: 4, W: 0}, false},
		{Dim{N: 16, P: 5, W: 1}, false}, // P does not divide N
		{Dim{N: 16, P: 4, W: 8}, false}, // W > L
		{Dim{N: 16, P: 4, W: 3}, false}, // W does not divide L
		{Dim{N: -4, P: 2, W: 1}, false},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.d, err, c.ok)
		}
	}
}

func TestDimDerivedQuantities(t *testing.T) {
	d := Dim{N: 24, P: 2, W: 3}
	if d.L() != 12 || d.S() != 6 || d.T() != 4 {
		t.Fatalf("L=%d S=%d T=%d", d.L(), d.S(), d.T())
	}
	if d.Block() || d.Cyclic() {
		t.Fatal("neither block nor cyclic expected")
	}
	if !(Dim{N: 8, P: 2, W: 4}).Block() {
		t.Fatal("W=L should be block")
	}
	if !(Dim{N: 8, P: 2, W: 1}).Cyclic() {
		t.Fatal("W=1 should be cyclic")
	}
}

// validDims used for property tests.
var validDims = []Dim{
	{N: 16, P: 4, W: 1},
	{N: 16, P: 4, W: 2},
	{N: 16, P: 4, W: 4},
	{N: 24, P: 2, W: 3},
	{N: 30, P: 3, W: 5},
	{N: 64, P: 8, W: 2},
	{N: 7, P: 7, W: 1},
	{N: 9, P: 1, W: 3},
}

func TestToLocalToGlobalInverse(t *testing.T) {
	for _, d := range validDims {
		if err := d.Validate(); err != nil {
			t.Fatalf("bad test dim %+v: %v", d, err)
		}
		seen := make(map[[2]int]bool)
		for g := 0; g < d.N; g++ {
			proc, local := d.ToLocal(g)
			if proc < 0 || proc >= d.P {
				t.Fatalf("%+v: owner of %d out of range: %d", d, g, proc)
			}
			if local < 0 || local >= d.L() {
				t.Fatalf("%+v: local of %d out of range: %d", d, g, local)
			}
			if back := d.ToGlobal(proc, local); back != g {
				t.Fatalf("%+v: ToGlobal(ToLocal(%d)) = %d", d, g, back)
			}
			key := [2]int{proc, local}
			if seen[key] {
				t.Fatalf("%+v: (proc,local) %v hit twice", d, key)
			}
			seen[key] = true
			if tile := d.TileOf(local); tile != local/d.W {
				t.Fatalf("TileOf(%d) = %d", local, tile)
			}
		}
		if len(seen) != d.N {
			t.Fatalf("%+v: ownership not a partition", d)
		}
	}
}

func TestBlockOwnershipIsContiguous(t *testing.T) {
	d := Dim{N: 20, P: 4, W: 5} // block
	for g := 0; g < d.N; g++ {
		proc, local := d.ToLocal(g)
		if proc != g/5 || local != g%5 {
			t.Fatalf("block dist wrong at %d: proc=%d local=%d", g, proc, local)
		}
	}
}

func TestCyclicOwnershipRoundRobin(t *testing.T) {
	d := Dim{N: 20, P: 4, W: 1}
	for g := 0; g < d.N; g++ {
		proc, local := d.ToLocal(g)
		if proc != g%4 || local != g/4 {
			t.Fatalf("cyclic dist wrong at %d: proc=%d local=%d", g, proc, local)
		}
	}
}

func testLayouts() []*Layout {
	return []*Layout{
		MustLayout(Dim{N: 16, P: 4, W: 2}),
		MustLayout(Dim{N: 8, P: 2, W: 1}, Dim{N: 6, P: 3, W: 2}),
		MustLayout(Dim{N: 4, P: 2, W: 2}, Dim{N: 4, P: 1, W: 1}, Dim{N: 6, P: 3, W: 1}),
	}
}

func TestLayoutRoundTrips(t *testing.T) {
	for _, l := range testLayouts() {
		n := l.GlobalSize()
		if l.LocalSize()*l.Procs() != n {
			t.Fatalf("%v: local*procs != global", l)
		}
		counts := make([]int, l.Procs())
		for pos := 0; pos < n; pos++ {
			g := l.UnflattenGlobal(pos)
			if back := l.FlattenGlobal(g); back != pos {
				t.Fatalf("%v: FlattenGlobal(UnflattenGlobal(%d)) = %d", l, pos, back)
			}
			rank, local := l.GlobalToLocal(g)
			counts[rank]++
			back := l.LocalToGlobal(rank, local)
			if !reflect.DeepEqual(back, g) {
				t.Fatalf("%v: LocalToGlobal(GlobalToLocal(%v)) = %v", l, g, back)
			}
			r2, lo2 := l.GlobalPosOwner(pos)
			if r2 != rank || lo2 != local {
				t.Fatalf("%v: GlobalPosOwner(%d) = (%d,%d), want (%d,%d)", l, pos, r2, lo2, rank, local)
			}
		}
		// The redistribution pipelines map every element through
		// GlobalPosOwner, so it must not allocate.
		if allocs := testing.AllocsPerRun(10, func() { l.GlobalPosOwner(n - 1) }); allocs != 0 {
			t.Fatalf("%v: GlobalPosOwner allocates %v times per call", l, allocs)
		}
		for rank, c := range counts {
			if c != l.LocalSize() {
				t.Fatalf("%v: rank %d owns %d elements, want %d", l, rank, c, l.LocalSize())
			}
		}
	}
}

func TestGridRankCoordsInverse(t *testing.T) {
	for _, l := range testLayouts() {
		for r := 0; r < l.Procs(); r++ {
			coords := l.GridCoords(r)
			if back := l.GridRank(coords); back != r {
				t.Fatalf("%v: GridRank(GridCoords(%d)) = %d", l, r, back)
			}
		}
	}
}

func TestFlattenLocalInverse(t *testing.T) {
	l := MustLayout(Dim{N: 8, P: 2, W: 2}, Dim{N: 6, P: 3, W: 1})
	for off := 0; off < l.LocalSize(); off++ {
		locals := l.UnflattenLocal(off)
		if back := l.FlattenLocal(locals); back != off {
			t.Fatalf("FlattenLocal(UnflattenLocal(%d)) = %d", off, back)
		}
	}
}

func TestSlices(t *testing.T) {
	l := MustLayout(Dim{N: 16, P: 4, W: 2}, Dim{N: 6, P: 3, W: 2})
	// T_0 = 16/(4*2) = 2 tiles, L_1 = 2, so C = 2*2 = 4.
	if got := l.Slices(); got != 4 {
		t.Fatalf("Slices = %d, want 4", got)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := NewLayout(Dim{N: 16, P: 5, W: 1}); err == nil {
		t.Error("invalid dimension accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLayout did not panic")
		}
	}()
	MustLayout(Dim{N: 16, P: 5, W: 1})
}

func TestLayoutString(t *testing.T) {
	l := MustLayout(Dim{N: 16, P: 4, W: 2}, Dim{N: 8, P: 2, W: 4})
	s := l.String()
	if s == "" || s[0] != '[' {
		t.Fatalf("odd String: %q", s)
	}
}

// TestGlobalPosOwnerProperty cross-checks the flat-position owner map
// against the per-dimension maps on random valid layouts, via
// testing/quick.
func TestGlobalPosOwnerProperty(t *testing.T) {
	layouts := testLayouts()
	f := func(layoutIdx uint, posSeed uint) bool {
		l := layouts[int(layoutIdx%uint(len(layouts)))]
		pos := int(posSeed % uint(l.GlobalSize()))
		rank, local := l.GlobalPosOwner(pos)
		// Reconstruct the global position from (rank, local).
		g := l.LocalToGlobal(rank, local)
		return l.FlattenGlobal(g) == pos
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockVector(t *testing.T) {
	v, err := NewBlockVector(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.BlockSize() != 3 {
		t.Fatalf("BlockSize = %d, want 3", v.BlockSize())
	}
	wantLens := []int{3, 3, 3, 1}
	total := 0
	for r := 0; r < 4; r++ {
		if got := v.LocalLen(r); got != wantLens[r] {
			t.Fatalf("LocalLen(%d) = %d, want %d", r, got, wantLens[r])
		}
		total += v.LocalLen(r)
	}
	if total != 10 {
		t.Fatalf("local lengths sum to %d", total)
	}
	for r := 0; r < 10; r++ {
		rank, local := v.Owner(r)
		if v.Start(rank)+local != r {
			t.Fatalf("Owner(%d) inconsistent with Start", r)
		}
		if local >= v.LocalLen(rank) {
			t.Fatalf("Owner(%d) local %d out of the owner's range", r, local)
		}
	}
}

func TestBlockVectorEmpty(t *testing.T) {
	v, err := NewBlockVector(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.BlockSize() != 0 {
		t.Fatal("empty vector should have zero block size")
	}
	for r := 0; r < 4; r++ {
		if v.LocalLen(r) != 0 {
			t.Fatal("empty vector should have empty blocks")
		}
	}
}

func TestBlockVectorMoreProcsThanElements(t *testing.T) {
	v, _ := NewBlockVector(3, 8)
	// BlockSize 1: ranks 0..2 own one element, the rest none.
	total := 0
	for r := 0; r < 8; r++ {
		total += v.LocalLen(r)
	}
	if total != 3 {
		t.Fatalf("local lengths sum to %d, want 3", total)
	}
}

func TestBlockVectorErrors(t *testing.T) {
	if _, err := NewBlockVector(-1, 4); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewBlockVector(4, 0); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestScatterGatherInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, l := range testLayouts() {
		global := make([]int, l.GlobalSize())
		for i := range global {
			global[i] = rng.Int()
		}
		locals := Scatter(l, global)
		if len(locals) != l.Procs() {
			t.Fatalf("Scatter produced %d locals", len(locals))
		}
		for r, loc := range locals {
			if len(loc) != l.LocalSize() {
				t.Fatalf("rank %d local size %d", r, len(loc))
			}
		}
		back := Gather(l, locals)
		if !reflect.DeepEqual(back, global) {
			t.Fatalf("%v: Gather(Scatter(x)) != x", l)
		}
	}
}

func TestScatterLocalOrderMatchesLocalToGlobal(t *testing.T) {
	l := MustLayout(Dim{N: 8, P: 2, W: 2}, Dim{N: 4, P: 2, W: 1})
	global := make([]int, l.GlobalSize())
	for i := range global {
		global[i] = i
	}
	locals := Scatter(l, global)
	for r := 0; r < l.Procs(); r++ {
		for off, v := range locals[r] {
			g := l.LocalToGlobal(r, off)
			if want := l.FlattenGlobal(g); v != want {
				t.Fatalf("rank %d off %d: got %d, want %d", r, off, v, want)
			}
		}
	}
}
