package dist

import (
	"reflect"
	"testing"
)

// FuzzDimRoundTrip fuzzes the per-dimension block-cyclic maps under
// the relaxed (no divisibility) rules: ToGlobal(ToLocal(g)) == g and
// locals stay within the advertised ragged lengths.
func FuzzDimRoundTrip(f *testing.F) {
	f.Add(16, 4, 2, 7)
	f.Add(17, 4, 2, 16)
	f.Add(1, 1, 1, 0)
	f.Add(1000, 7, 13, 999)
	f.Fuzz(func(t *testing.T, n, p, w, g int) {
		n = n%2000 + 1
		if n < 1 {
			n = 1
		}
		p = p%16 + 1
		if p < 1 {
			p = 1
		}
		w = w%32 + 1
		if w < 1 {
			w = 1
		}
		d := Dim{N: n, P: p, W: w}
		if err := d.ValidateRelaxed(); err != nil {
			t.Skip()
		}
		g = ((g % n) + n) % n
		proc, local := d.ToLocal(g)
		if proc < 0 || proc >= p {
			t.Fatalf("dim %+v: owner(%d) = %d", d, g, proc)
		}
		if local < 0 || local >= d.LocalLenAt(proc) {
			t.Fatalf("dim %+v: local(%d) = %d outside [0,%d)", d, g, local, d.LocalLenAt(proc))
		}
		if back := d.ToGlobal(proc, local); back != g {
			t.Fatalf("dim %+v: round trip %d -> %d", d, g, back)
		}
		pd := d.Padded()
		if err := pd.Validate(); err != nil {
			t.Fatalf("padded dim %+v invalid: %v", pd, err)
		}
		p2, l2 := pd.ToLocal(g)
		if p2 != proc || l2 != local {
			t.Fatalf("padding moved element %d", g)
		}
	})
}

// FuzzVectorDist fuzzes the remainder-tolerant vector distribution.
func FuzzVectorDist(f *testing.F) {
	f.Add(10, 4, 0, 9)
	f.Add(17, 4, 3, 0)
	f.Add(1, 8, 1, 0)
	f.Fuzz(func(t *testing.T, size, p, w, r int) {
		size = ((size % 500) + 500) % 500
		p = p%12 + 1
		if p < 1 {
			p = 1
		}
		w = ((w % 9) + 9) % 9
		v, err := NewVectorDist(size, p, w)
		if err != nil {
			t.Skip()
		}
		total := 0
		for rank := 0; rank < v.P; rank++ {
			total += v.LocalLen(rank)
		}
		if total != v.Size {
			t.Fatalf("%+v: local lengths sum to %d", v, total)
		}
		if size == 0 {
			return
		}
		r = ((r % size) + size) % size
		rank, local := v.Owner(r)
		if v.ToGlobal(rank, local) != r {
			t.Fatalf("%+v: round trip failed at %d", v, r)
		}
		end := v.BlockRunEnd(r)
		if end <= r || end > v.Size {
			t.Fatalf("%+v: BlockRunEnd(%d) = %d", v, r, end)
		}
		for s := r; s < end; s++ {
			if sr, _ := v.Owner(s); sr != rank {
				t.Fatalf("%+v: run from %d crosses owners at %d", v, r, s)
			}
		}
	})
}

// fuzzDims decodes a layout of 1-3 dimensions from spec: a rank byte,
// then three bytes per dimension (extent, processors, block size).
// Strict dimensions satisfy the paper's divisibility assumptions with
// 1-3 tiles per processor (one tile is the block distribution); general
// ones take any extent below 24, zero included.
func fuzzDims(spec []byte, general bool) []Dim {
	at := func(i int) int {
		if i < len(spec) {
			return int(spec[i])
		}
		return 0
	}
	dims := make([]Dim, 1+at(0)%3)
	for i := range dims {
		a, b, c := at(1+3*i), at(2+3*i), at(3+3*i)
		p, w := 1+b%4, 1+c%6
		if general {
			dims[i] = Dim{N: a % 24, P: p, W: w}
		} else {
			dims[i] = Dim{N: p * w * (1 + a%3), P: p, W: w}
		}
	}
	return dims
}

// FuzzScatterRuns checks the run copies element by element against
// the per-element index maps: Scatter, Gather, ScatterRank and
// GatherRank against Layout.GlobalPosOwner, ScatterGeneral and
// GatherGeneral against GeneralLayout.GlobalToLocal, and the vector
// copies against VectorDist.ToGlobal (vw 0 is the block default).
func FuzzScatterRuns(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0}, false, 10, 0)                   // 1-D CYCLIC
	f.Add([]byte{0, 0, 3, 5}, false, 7, 1)                    // 1-D block, cyclic vector
	f.Add([]byte{1, 1, 1, 3, 2, 0, 1}, false, 0, 2)           // 2-D, empty vector
	f.Add([]byte{2, 2, 1, 1, 0, 2, 0, 1, 0, 2}, false, 23, 4) // 3-D
	f.Add([]byte{0, 17, 1, 1}, true, 17, 3)                   // ragged tail block
	f.Add([]byte{1, 9, 2, 2, 0, 0, 0}, true, 5, 2)            // zero extent
	f.Add([]byte{2, 5, 1, 0, 7, 2, 1, 3, 0, 2}, true, 100, 0) // 3-D ragged
	f.Fuzz(func(t *testing.T, spec []byte, general bool, vsize, vw int) {
		dims := fuzzDims(spec, general)
		n := 1
		for _, d := range dims {
			n *= d.N
		}
		if n > 1<<12 {
			t.Skip()
		}
		global := make([]int, n)
		for i := range global {
			global[i] = i + 1
		}
		var procs int
		if general {
			procs = checkGeneralRuns(t, MustGeneralLayout(dims...), global)
		} else {
			procs = checkLayoutRuns(t, MustLayout(dims...), global)
		}

		v, err := NewVectorDist(((vsize%300)+300)%300, procs, ((vw%9)+9)%9)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]int, v.Size)
		for i := range vec {
			vec[i] = i + 1
		}
		back := make([]int, v.Size)
		for r := 0; r < v.P; r++ {
			local := make([]int, v.LocalLen(r))
			ScatterVector(v, r, vec, local)
			for i, x := range local {
				if want := vec[v.ToGlobal(r, i)]; x != want {
					t.Fatalf("%+v rank %d: ScatterVector local %d = %d, want %d", v, r, i, x, want)
				}
			}
			GatherVector(v, r, local, back)
		}
		if !reflect.DeepEqual(back, vec) {
			t.Fatalf("%+v: GatherVector does not reassemble the vector", v)
		}
	})
}

// checkLayoutRuns checks the whole-array and per-rank copies of a
// strict layout against GlobalPosOwner and returns its processor count.
func checkLayoutRuns(t *testing.T, l *Layout, global []int) int {
	t.Helper()
	locals := Scatter(l, global)
	oracle := make([][]int, l.Procs())
	for r := range oracle {
		oracle[r] = make([]int, l.LocalSize())
	}
	for pos, x := range global {
		r, off := l.GlobalPosOwner(pos)
		if locals[r][off] != x {
			t.Fatalf("%v: Scatter put %d at rank %d offset %d, want %d", l, locals[r][off], r, off, x)
		}
		oracle[r][off] = x
	}
	if back := Gather(l, oracle); !reflect.DeepEqual(back, global) {
		t.Fatalf("%v: Gather differs from GlobalPosOwner", l)
	}
	back := make([]int, len(global))
	for r := range oracle {
		local := make([]int, l.LocalSize())
		ScatterRank(l, r, global, local)
		if !reflect.DeepEqual(local, oracle[r]) {
			t.Fatalf("%v rank %d: ScatterRank differs from GlobalPosOwner", l, r)
		}
		GatherRank(l, r, oracle[r], back)
	}
	if !reflect.DeepEqual(back, global) {
		t.Fatalf("%v: GatherRank differs from GlobalPosOwner", l)
	}
	return l.Procs()
}

// checkGeneralRuns checks the ragged copies of a general layout against
// GlobalToLocal and returns its processor count.
func checkGeneralRuns(t *testing.T, l *GeneralLayout, global []int) int {
	t.Helper()
	locals := ScatterGeneral(l, global)
	oracle := make([][]int, l.Procs())
	for r := range oracle {
		if len(locals[r]) != l.LocalSizeAt(r) {
			t.Fatalf("%+v rank %d: %d local elements, want %d", l.Dims, r, len(locals[r]), l.LocalSizeAt(r))
		}
		oracle[r] = make([]int, l.LocalSizeAt(r))
	}
	idx := make([]int, l.Rank())
	for _, x := range global {
		r, off := l.GlobalToLocal(idx)
		if locals[r][off] != x {
			t.Fatalf("%+v: ScatterGeneral put %d at rank %d offset %d, want %d", l.Dims, locals[r][off], r, off, x)
		}
		oracle[r][off] = x
		for i := range idx {
			if idx[i]++; idx[i] < l.Dims[i].N {
				break
			}
			idx[i] = 0
		}
	}
	if back := GatherGeneral(l, oracle); !reflect.DeepEqual(back, global) {
		t.Fatalf("%+v: GatherGeneral differs from GlobalToLocal", l.Dims)
	}
	return l.Procs()
}
