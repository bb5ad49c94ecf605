package comm

import (
	"testing"

	"packunpack/internal/sim"
)

// FuzzPrefixReductionSum fuzzes both prefix-reduction-sum variants (and
// the auto rule) across machine sizes and vector lengths against a
// locally computed oracle. The seeded corpus lives in
// testdata/fuzz/FuzzPrefixReductionSum.
func FuzzPrefixReductionSum(f *testing.F) {
	f.Add(4, 9, 0, int64(1))
	f.Add(8, 1, 1, int64(2))
	f.Add(6, 33, 2, int64(3))
	f.Add(1, 0, 0, int64(4))
	f.Fuzz(func(t *testing.T, procs, m, algoSel int, seed int64) {
		procs = ((procs%8)+8)%8 + 1
		m = ((m % 48) + 48) % 48
		algo := []PRSAlgorithm{PRSAuto, PRSDirect, PRSSplit}[((algoSel%3)+3)%3]

		x := uint64(seed)
		next := func() int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % 1000
		}
		vecs := make([][]int, procs)
		for r := range vecs {
			vecs[r] = make([]int, m)
			for j := range vecs[r] {
				vecs[r][j] = next()
			}
		}

		wantPrefix := make([][]int, procs)
		run := make([]int, m)
		for r := 0; r < procs; r++ {
			wantPrefix[r] = append([]int(nil), run...)
			for j := 0; j < m; j++ {
				run[j] += vecs[r][j]
			}
		}
		// run now holds the reduction total.

		gotP := make([][]int, procs)
		gotT := make([][]int, procs)
		mach := sim.MustNew(sim.Config{Procs: procs})
		if err := mach.Run(func(p *sim.Proc) {
			g := World(p)
			gotP[p.Rank()], gotT[p.Rank()] = g.PrefixReductionSum(vecs[p.Rank()], algo)
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < procs; r++ {
			for j := 0; j < m; j++ {
				if gotP[r][j] != wantPrefix[r][j] {
					t.Fatalf("procs=%d m=%d algo=%v: prefix[%d][%d] = %d, want %d",
						procs, m, algo, r, j, gotP[r][j], wantPrefix[r][j])
				}
				if gotT[r][j] != run[j] {
					t.Fatalf("procs=%d m=%d algo=%v: total[%d][%d] = %d, want %d",
						procs, m, algo, r, j, gotT[r][j], run[j])
				}
			}
		}
	})
}
