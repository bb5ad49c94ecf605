package dist

import (
	"fmt"
	"reflect"
	"testing"
)

type run struct{ local, global, n int }

func collectRuns(w RunWalker) []run {
	var out []run
	for off, pos, n, ok := w.Next(); ok; off, pos, n, ok = w.Next() {
		out = append(out, run{off, pos, n})
	}
	return out
}

// TestRunWalkerRuns pins the runs of small layouts by hand: W_0 blocks
// along dimension 0, rows stepped in local order over the dimensions
// above, and the trailing partial block of a ragged dimension.
func TestRunWalkerRuns(t *testing.T) {
	cases := []struct {
		name string
		w    RunWalker
		want []run
	}{
		{"cyclic(2) 1-D, rank 1", MustLayout(Dim{N: 8, P: 2, W: 2}).Runs(1),
			[]run{{0, 2, 2}, {2, 6, 2}}},
		// 2-D: dimension 0 is 4 wide over 2 processors in blocks of 1
		// and dimension 1 is 3 tall on 1 processor, so rank 0 owns
		// columns 0 and 2 of every row.
		{"2-D, rank 0", MustLayout(Dim{N: 4, P: 2, W: 1}, Dim{N: 3, P: 1, W: 3}).Runs(0),
			[]run{{0, 0, 1}, {1, 2, 1}, {2, 4, 1}, {3, 6, 1}, {4, 8, 1}, {5, 10, 1}}},
		// Dimension 1 in blocks of 1 over 2 processors: rank 2 (grid
		// coordinates 0, 1) owns rows 1 and 3.
		{"2-D cyclic rows, rank 2", MustLayout(Dim{N: 4, P: 2, W: 2}, Dim{N: 4, P: 2, W: 1}).Runs(2),
			[]run{{0, 4, 2}, {2, 12, 2}}},
		// Ragged: 7 elements in blocks of 2 over 2 processors; rank 1
		// owns blocks 1 and 3, the last one partial.
		{"ragged, rank 1", MustGeneralLayout(Dim{N: 7, P: 2, W: 2}).runs(1),
			[]run{{0, 2, 2}, {2, 6, 1}}},
		{"zero extent", MustGeneralLayout(Dim{N: 4, P: 1, W: 2}, Dim{N: 0, P: 1, W: 1}).runs(0), nil},
		{"vector cyclic(3), rank 0", VectorDist{Size: 10, P: 2, W: 3}.runs(0),
			[]run{{0, 0, 3}, {3, 6, 3}}},
		{"vector cyclic(3), rank 1", VectorDist{Size: 10, P: 2, W: 3}.runs(1),
			[]run{{0, 3, 3}, {3, 9, 1}}},
	}
	for _, c := range cases {
		if got := collectRuns(c.w); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkKernelScatter times the whole-array Scatter (allocation
// included, as a serve job pays it) and Gather at the four class
// layouts of the serve benchmark and at the pack benchmarks' 2^20
// CYCLIC(64) array, all on P=2, and reports ns per global element.
func BenchmarkKernelScatter(b *testing.B) {
	layouts := []struct {
		name string
		l    *Layout
	}{
		{"2^14/cyclic(4)", MustLayout(Dim{N: 1 << 14, P: 2, W: 4})},
		{"2^15/cyclic(8)", MustLayout(Dim{N: 1 << 15, P: 2, W: 8})},
		{"2^7x2^8/cyclic(4)", MustLayout(Dim{N: 1 << 7, P: 2, W: 4}, Dim{N: 1 << 8, P: 1, W: 4})},
		{"2^16/cyclic(16)", MustLayout(Dim{N: 1 << 16, P: 2, W: 16})},
		{"2^20/cyclic(64)", MustLayout(Dim{N: 1 << 20, P: 2, W: 64})},
	}
	for _, c := range layouts {
		n := c.l.GlobalSize()
		global := make([]int, n)
		for i := range global {
			global[i] = i
		}
		locals := Scatter(c.l, global)
		for _, v := range []struct {
			name string
			fn   func()
		}{
			{"scatter", func() { Scatter(c.l, global) }},
			{"gather", func() { Gather(c.l, locals) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", c.name, v.name), func(b *testing.B) {
				for b.Loop() {
					v.fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
