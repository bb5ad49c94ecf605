package dist

import (
	"testing"
	"testing/quick"
)

func TestVectorDistDefaultIsBlock(t *testing.T) {
	v, err := NewVectorDist(10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.W != 3 {
		t.Fatalf("default W = %d, want ceil(10/4)=3", v.W)
	}
	if !v.Block() {
		t.Fatal("default distribution should be block")
	}
	// Must agree with the legacy BlockVector.
	bv, _ := NewBlockVector(10, 4)
	for r := 0; r < 10; r++ {
		wr, wl := bv.Owner(r)
		gr, gl := v.Owner(r)
		if wr != gr || wl != gl {
			t.Fatalf("index %d: VectorDist (%d,%d) vs BlockVector (%d,%d)", r, gr, gl, wr, wl)
		}
	}
	for rank := 0; rank < 4; rank++ {
		if v.LocalLen(rank) != bv.LocalLen(rank) {
			t.Fatalf("rank %d: LocalLen %d vs %d", rank, v.LocalLen(rank), bv.LocalLen(rank))
		}
	}
}

func TestVectorDistEmpty(t *testing.T) {
	v, err := NewVectorDist(0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		if v.LocalLen(rank) != 0 {
			t.Fatal("empty vector has no local elements")
		}
	}
}

func TestVectorDistValidation(t *testing.T) {
	if _, err := NewVectorDist(-1, 2, 0); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewVectorDist(4, 0, 0); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := NewVectorDist(4, 2, -1); err == nil {
		t.Error("negative W accepted")
	}
}

// TestVectorDistPartition: owner/local mapping is a bijection onto
// per-processor ranges of the advertised lengths, and ToGlobal inverts
// it, for a spread of awkward size/P/W combinations.
func TestVectorDistPartition(t *testing.T) {
	cases := []VectorDist{
		{Size: 17, P: 4, W: 1},
		{Size: 17, P: 4, W: 2},
		{Size: 17, P: 4, W: 3},
		{Size: 17, P: 4, W: 5}, // block with remainder
		{Size: 16, P: 4, W: 4}, // exact block
		{Size: 5, P: 8, W: 1},  // fewer elements than processors
		{Size: 1, P: 3, W: 7},
		{Size: 100, P: 7, W: 4},
	}
	for _, v := range cases {
		counts := make(map[int]map[int]bool)
		for r := 0; r < v.Size; r++ {
			rank, local := v.Owner(r)
			if rank < 0 || rank >= v.P {
				t.Fatalf("%+v: owner(%d) rank %d", v, r, rank)
			}
			if local < 0 || local >= v.LocalLen(rank) {
				t.Fatalf("%+v: owner(%d) local %d outside [0,%d)", v, r, local, v.LocalLen(rank))
			}
			if counts[rank] == nil {
				counts[rank] = map[int]bool{}
			}
			if counts[rank][local] {
				t.Fatalf("%+v: (rank,local)=(%d,%d) assigned twice", v, rank, local)
			}
			counts[rank][local] = true
			if back := v.ToGlobal(rank, local); back != r {
				t.Fatalf("%+v: ToGlobal(Owner(%d)) = %d", v, r, back)
			}
		}
		total := 0
		for rank := 0; rank < v.P; rank++ {
			total += v.LocalLen(rank)
		}
		if total != v.Size {
			t.Fatalf("%+v: local lengths sum to %d", v, total)
		}
	}
}

func TestVectorDistProperty(t *testing.T) {
	f := func(size uint16, p, w uint8) bool {
		v, err := NewVectorDist(int(size%500), int(p%8)+1, int(w%9))
		if err != nil {
			return false
		}
		total := 0
		for rank := 0; rank < v.P; rank++ {
			total += v.LocalLen(rank)
		}
		if total != v.Size {
			return false
		}
		for r := 0; r < v.Size; r++ {
			rank, local := v.Owner(r)
			if v.ToGlobal(rank, local) != r || local >= v.LocalLen(rank) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRunEnd(t *testing.T) {
	v := VectorDist{Size: 10, P: 2, W: 3}
	cases := map[int]int{0: 3, 1: 3, 2: 3, 3: 6, 5: 6, 6: 9, 8: 9, 9: 10}
	for r, want := range cases {
		if got := v.BlockRunEnd(r); got != want {
			t.Errorf("BlockRunEnd(%d) = %d, want %d", r, got, want)
		}
	}
	// Runs must never cross owners.
	for r := 0; r < v.Size; r++ {
		rank, _ := v.Owner(r)
		for s := r + 1; s < v.BlockRunEnd(r); s++ {
			if sr, _ := v.Owner(s); sr != rank {
				t.Fatalf("run containing %d crosses owners at %d", r, s)
			}
		}
	}
}

// TestCursorMatchesOwner pins Cursor.Seek to Owner and BlockRunEnd on
// rising walks (every index, and every third), a falling walk and
// random jumps, over block and block-cyclic vectors with a partial
// trailing block.
func TestCursorMatchesOwner(t *testing.T) {
	for _, c := range []struct{ size, p, w int }{{10, 4, 0}, {37, 3, 4}, {64, 2, 1}, {100, 5, 7}, {1, 1, 0}} {
		v, err := NewVectorDist(c.size, c.p, c.w)
		if err != nil {
			t.Fatal(err)
		}
		walks := [][]int{{}, {}, {}, {}}
		for r := 0; r < v.Size; r++ {
			walks[0] = append(walks[0], r)
			walks[1] = append(walks[1], v.Size-1-r)
			walks[3] = append(walks[3], (r*7919)%v.Size)
		}
		for r := 0; r < v.Size; r += 3 {
			walks[2] = append(walks[2], r)
		}
		for wi, walk := range walks {
			cur := v.Cursor()
			for _, r := range walk {
				rank, local, end := cur.Seek(r)
				wantRank, wantLocal := v.Owner(r)
				if rank != wantRank || local != wantLocal || end != v.BlockRunEnd(r) {
					t.Fatalf("%+v walk %d index %d: Seek (%d, %d, %d), want (%d, %d, %d)",
						v, wi, r, rank, local, end, wantRank, wantLocal, v.BlockRunEnd(r))
				}
			}
		}
	}
}
