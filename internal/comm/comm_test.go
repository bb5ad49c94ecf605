package comm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"packunpack/internal/sim"
)

// runGroups executes body on a machine of n processors, giving each the
// world group.
func runGroups(t *testing.T, n int, params sim.Params, body func(g Group)) *sim.Machine {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: n, Params: params})
	if err := m.Run(func(p *sim.Proc) { body(World(p)) }); err != nil {
		t.Fatalf("machine run failed: %v", err)
	}
	return m
}

// elemWords is AlltoallVW's word counts for one word per element.
func elemWords(send [][]int) []int {
	words := make([]int, len(send))
	for i, buf := range send {
		words[i] = len(buf)
	}
	return words
}

func TestNewGroupValidation(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 4})
	err := m.Run(func(p *sim.Proc) {
		if _, err := NewGroup(p, []int{0, 1}); p.Rank() >= 2 && err == nil {
			panic("membership not checked")
		}
		if p.Rank() == 0 {
			if _, err := NewGroup(p, []int{0, 0, 1}); err == nil {
				panic("duplicate member accepted")
			}
		}
		g, err := NewGroup(p, []int{3, 2, 1, 0})
		if err != nil {
			panic(err)
		}
		if g.Size() != 4 || g.Index() != 3-p.Rank() {
			panic(fmt.Sprintf("rank %d: wrong group view %d/%d", p.Rank(), g.Index(), g.Size()))
		}
		if !reflect.DeepEqual(g.Ranks(), []int{3, 2, 1, 0}) {
			panic("Ranks() mangled")
		}
		if g.Proc() != p {
			panic("Proc() lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 5, Params: sim.Params{Tau: 1, Delta: 1}})
	err := m.Run(func(p *sim.Proc) {
		p.Charge(p.Rank() * 100) // skewed clocks
		World(p).Barrier()
		if p.Clock() < 400 {
			panic(fmt.Sprintf("rank %d clock %v below the slowest member's entry", p.Rank(), p.Clock()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for root := 0; root < n; root++ {
			runGroups(t, n, sim.Params{}, func(g Group) {
				var vec []int
				if g.Index() == root {
					vec = []int{root * 10, root*10 + 1, 42}
				}
				got := g.Bcast(root, vec)
				want := []int{root * 10, root*10 + 1, 42}
				if !reflect.DeepEqual(got, want) {
					panic(fmt.Sprintf("n=%d root=%d idx=%d: got %v", n, root, g.Index(), got))
				}
			})
		}
	}
}

func TestBcastReceiversGetPrivateCopies(t *testing.T) {
	runGroups(t, 4, sim.Params{}, func(g Group) {
		var vec []int
		if g.Index() == 0 {
			vec = []int{7}
		}
		got := g.Bcast(0, vec)
		got[0] += g.Index() // must not race with other members
		if got[0] != 7+g.Index() {
			panic("copy aliased")
		}
	})
}

func TestGatherV(t *testing.T) {
	out := make([][][]int, 4)
	runGroups(t, 4, sim.Params{}, func(g Group) {
		contrib := make([]int, g.Index()+1)
		for i := range contrib {
			contrib[i] = g.Index()*100 + i
		}
		out[g.Index()] = GatherV(g, 2, contrib, 1)
	})
	for i, o := range out {
		if (o != nil) != (i == 2) {
			t.Fatalf("member %d: gather result presence wrong", i)
		}
	}
	for src, buf := range out[2] {
		if len(buf) != src+1 || buf[0] != src*100 {
			t.Fatalf("gathered contribution from %d wrong: %v", src, buf)
		}
	}
}

// prsOracle computes the expected prefix/total for the deterministic
// per-member vectors used below.
func prsVec(idx, m int) []int {
	v := make([]int, m)
	for j := range v {
		v[j] = (idx+1)*(j+1) + idx
	}
	return v
}

func TestPrefixReductionSumAlgorithms(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, m := range []int{0, 1, 7, 64} {
			wantPrefix := make([][]int, n)
			wantTotal := make([]int, m)
			run := make([]int, m)
			for i := 0; i < n; i++ {
				wantPrefix[i] = make([]int, m)
				copy(wantPrefix[i], run)
				for j, x := range prsVec(i, m) {
					run[j] += x
					wantTotal[j] = run[j]
				}
			}
			for _, algo := range []PRSAlgorithm{PRSDirect, PRSSplit, PRSAuto} {
				name := fmt.Sprintf("n=%d m=%d %v", n, m, algo)
				runGroups(t, n, sim.Params{}, func(g Group) {
					vec := prsVec(g.Index(), m)
					prefix, total := g.PrefixReductionSum(vec, algo)
					if !reflect.DeepEqual(prefix, wantPrefix[g.Index()]) {
						panic(fmt.Sprintf("%s idx=%d: prefix %v, want %v", name, g.Index(), prefix, wantPrefix[g.Index()]))
					}
					if !reflect.DeepEqual(total, wantTotal) {
						panic(fmt.Sprintf("%s idx=%d: total %v, want %v", name, g.Index(), total, wantTotal))
					}
					// The input must not be modified.
					if !reflect.DeepEqual(vec, prsVec(g.Index(), m)) {
						panic(name + ": input vector modified")
					}
					// Results must be private (mutating them is safe).
					for i := range total {
						total[i] += g.Index()
					}
				})
			}
		}
	}
}

// TestPRSSplitShortVectors pins the explicit-PRSSplit edge the auto
// rule hides: with m < n the even split hands some members zero-length
// pieces (pieceBounds gives lo == hi), so those members combine
// nothing, send empty return messages, and must still terminate with
// the right full-length results. The auto rule never picks split here
// (it falls back to direct for m < n), so only an explicit algorithm
// choice reaches this path.
func TestPRSSplitShortVectors(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16} {
		for _, m := range []int{0, 1, 2, n - 1} {
			if m >= n { // this test is about m < n only
				continue
			}
			name := fmt.Sprintf("n=%d m=%d", n, m)
			// Oracle from the direct algorithm over the same inputs.
			wantPrefix := make([][]int, n)
			wantTotal := make([][]int, n)
			runGroups(t, n, sim.Params{}, func(g Group) {
				p, tt := g.PrefixReductionSum(prsVec(g.Index(), m), PRSDirect)
				wantPrefix[g.Index()], wantTotal[g.Index()] = p, tt
			})
			runGroups(t, n, sim.Params{}, func(g Group) {
				prefix, total := g.PrefixReductionSum(prsVec(g.Index(), m), PRSSplit)
				if len(prefix) != m || len(total) != m {
					panic(fmt.Sprintf("%s idx=%d: result lengths %d/%d, want %d", name, g.Index(), len(prefix), len(total), m))
				}
				if !reflect.DeepEqual(prefix, wantPrefix[g.Index()]) || !reflect.DeepEqual(total, wantTotal[g.Index()]) {
					panic(fmt.Sprintf("%s idx=%d: split (%v, %v) != direct (%v, %v)",
						name, g.Index(), prefix, total, wantPrefix[g.Index()], wantTotal[g.Index()]))
				}
			})
		}
	}
}

func TestPRSCostShapes(t *testing.T) {
	// With M large, split must beat direct on many processors; with M
	// tiny, direct must win. This is the paper's experimental claim
	// about the two algorithms.
	params := sim.CM5Params()
	cost := func(n, m int, algo PRSAlgorithm) float64 {
		machine := runGroups(t, n, params, func(g Group) {
			g.PrefixReductionSum(make([]int, m), algo)
		})
		return machine.MaxClock()
	}
	if d, s := cost(16, 16384, PRSDirect), cost(16, 16384, PRSSplit); s >= d {
		t.Errorf("split (%v) should beat direct (%v) on long vectors", s, d)
	}
	if d, s := cost(16, 4, PRSDirect), cost(16, 4, PRSSplit); d >= s {
		t.Errorf("direct (%v) should beat split (%v) on short vectors", d, s)
	}
	// Auto should match the better of the two, up to its heuristic.
	a := cost(16, 16384, PRSAuto)
	if a > cost(16, 16384, PRSDirect) {
		t.Errorf("auto picked a worse algorithm on long vectors")
	}
}

func TestPieceBounds(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{4, 10}, {3, 3}, {5, 2}, {1, 9}, {7, 0}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := pieceBounds(i, tc.n, tc.m)
			if lo != prevHi {
				t.Fatalf("n=%d m=%d: piece %d starts at %d, want %d", tc.n, tc.m, i, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative piece")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.m || prevHi != tc.m {
			t.Fatalf("n=%d m=%d: pieces cover %d", tc.n, tc.m, covered)
		}
	}
}

func TestAlltoallVAllVariants(t *testing.T) {
	variants := []A2AOptions{
		{},
		{SkipEmpty: true},
		{Naive: true},
		{Naive: true, SkipEmpty: true},
	}
	for _, n := range []int{1, 2, 3, 4, 8} {
		for vi, opt := range variants {
			name := fmt.Sprintf("n=%d variant=%d", n, vi)
			runGroups(t, n, sim.Params{}, func(g Group) {
				send := make([][]int, n)
				for dst := 0; dst < n; dst++ {
					// Member i sends i*n+dst copies (some empty).
					k := (g.Index() + dst) % 3
					buf := make([]int, k)
					for j := range buf {
						buf[j] = g.Index()*1000 + dst*10 + j
					}
					send[dst] = buf
				}
				recv := AlltoallVW(g, send, elemWords(send), opt)
				for src := 0; src < n; src++ {
					k := (src + g.Index()) % 3
					if len(recv[src]) != k {
						panic(fmt.Sprintf("%s: from %d got %d elems, want %d", name, src, len(recv[src]), k))
					}
					for j, v := range recv[src] {
						if v != src*1000+g.Index()*10+j {
							panic(fmt.Sprintf("%s: corrupted element", name))
						}
					}
				}
			})
		}
	}
}

func TestAlltoallVWWordAccounting(t *testing.T) {
	// Word counts drive the cost model: 3 members, each sending one
	// 4-word message and two empty ones.
	params := sim.Params{Tau: 10, Mu: 1}
	m := runGroups(t, 3, params, func(g Group) {
		send := make([][]int, 3)
		send[(g.Index()+1)%3] = []int{1, 2, 3, 4}
		words := []int{0, 0, 0}
		words[(g.Index()+1)%3] = 4
		AlltoallVW(g, send, words, A2AOptions{})
	})
	// Default mode sends all 3 rounds (incl. empty + self): per proc
	// 3*tau + 4*mu = 34 of send occupancy.
	for _, s := range m.Stats() {
		if s.WordsSent != 4 || s.MsgsSent != 3 {
			t.Fatalf("stats %+v", s)
		}
	}
}

// TestAlltoallVWSkipEmptyTestsWords pins what SkipEmpty calls empty: a
// message of zero words. Each of 3 members sends its successor an
// empty, non-nil payload of 5 words and everyone else (itself
// included) nil of 0 words. Under both schedules the 5-word message
// must be sent, charged and delivered, and only the 0-word ones
// skipped: one message and 5 words per member.
func TestAlltoallVWSkipEmptyTestsWords(t *testing.T) {
	for _, naive := range []bool{false, true} {
		opt := A2AOptions{SkipEmpty: true, Naive: naive}
		m := runGroups(t, 3, sim.Params{Tau: 10, Mu: 1}, func(g Group) {
			me := g.Index()
			send := make([][]int, 3)
			words := make([]int, 3)
			send[(me+1)%3], words[(me+1)%3] = []int{}, 5
			recv := AlltoallVW(g, send, words, opt)
			for src, buf := range recv {
				if delivered := buf != nil; delivered != (src == (me+2)%3) {
					panic(fmt.Sprintf("naive=%v: member %d got %#v from %d", naive, me, buf, src))
				}
			}
		})
		for _, s := range m.Stats() {
			if s.MsgsSent != 1 || s.WordsSent != 5 {
				t.Errorf("naive=%v: rank %d sent %d messages of %d words, want 1 of 5", naive, s.Rank, s.MsgsSent, s.WordsSent)
			}
		}
	}
}

func TestAlltoallVSkipEmptySavesStartups(t *testing.T) {
	params := sim.CM5Params()
	sparse := func(opt A2AOptions) float64 {
		m := runGroups(t, 16, params, func(g Group) {
			send := make([][]int, 16)
			if g.Index() == 0 {
				send[1] = []int{9}
			}
			AlltoallVW(g, send, elemWords(send), opt)
		})
		return m.MaxClock()
	}
	full, skip := sparse(A2AOptions{}), sparse(A2AOptions{SkipEmpty: true})
	if skip >= full {
		t.Errorf("SkipEmpty (%v) should be cheaper than always-send (%v) on sparse patterns", skip, full)
	}
}

func TestAlltoallVDeterministicUnderRandomData(t *testing.T) {
	// Permutation-schedule delivery must be exact for irregular sizes.
	rng := rand.New(rand.NewSource(7))
	sizes := make([][]int, 8)
	for i := range sizes {
		sizes[i] = make([]int, 8)
		for j := range sizes[i] {
			sizes[i][j] = rng.Intn(5)
		}
	}
	runGroups(t, 8, sim.Params{}, func(g Group) {
		send := make([][]int, 8)
		for dst := 0; dst < 8; dst++ {
			send[dst] = make([]int, sizes[g.Index()][dst])
			for j := range send[dst] {
				send[dst][j] = g.Index()<<16 | dst<<8 | j
			}
		}
		recv := AlltoallV(g, send, 1)
		for src := 0; src < 8; src++ {
			if len(recv[src]) != sizes[src][g.Index()] {
				panic("size mismatch")
			}
			for j, v := range recv[src] {
				if v != src<<16|g.Index()<<8|j {
					panic("payload mismatch")
				}
			}
		}
	})
}

func TestGroupSubsetCollectives(t *testing.T) {
	// Collectives on non-world groups: two disjoint row groups.
	m := sim.MustNew(sim.Config{Procs: 6})
	err := m.Run(func(p *sim.Proc) {
		row := p.Rank() / 3
		ranks := []int{row * 3, row*3 + 1, row*3 + 2}
		g, err := NewGroup(p, ranks)
		if err != nil {
			panic(err)
		}
		prefix, total := g.PrefixReductionSum([]int{p.Rank()}, PRSDirect)
		wantTotal := ranks[0] + ranks[1] + ranks[2]
		if total[0] != wantTotal {
			panic(fmt.Sprintf("row %d: total %d, want %d", row, total[0], wantTotal))
		}
		wantPrefix := 0
		for _, r := range ranks[:g.Index()] {
			wantPrefix += r
		}
		if prefix[0] != wantPrefix {
			panic(fmt.Sprintf("row %d idx %d: prefix %d, want %d", row, g.Index(), prefix[0], wantPrefix))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCostIsLogRounds(t *testing.T) {
	// Dissemination barrier: ceil(log2 P) rounds of zero-word tokens,
	// so each member's clock advances by exactly rounds*tau when all
	// enter simultaneously.
	for _, n := range []int{2, 4, 8, 16} {
		params := sim.Params{Tau: 10}
		m := runGroups(t, n, params, func(g Group) {
			g.Barrier()
		})
		want := float64(ceilLog2(n)) * 10
		for _, s := range m.Stats() {
			if s.Clock != want {
				t.Fatalf("P=%d: clock %v, want %v", n, s.Clock, want)
			}
		}
	}
}

func TestGatherVMultiWordElements(t *testing.T) {
	type pair struct{ A, B int }
	m := sim.MustNew(sim.Config{Procs: 3, Params: sim.Params{Tau: 1, Mu: 1}})
	err := m.Run(func(p *sim.Proc) {
		g := World(p)
		contrib := []pair{{A: p.Rank(), B: -p.Rank()}}
		out := GatherV(g, 0, contrib, 2)
		if p.Rank() == 0 {
			for src, buf := range out {
				if len(buf) != 1 || buf[0].A != src || buf[0].B != -src {
					panic(fmt.Sprintf("gathered %v from %d", buf, src))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Word accounting: ranks 1 and 2 each sent one 2-word message.
	for _, s := range m.Stats() {
		if s.Rank != 0 && s.WordsSent != 2 {
			t.Fatalf("rank %d sent %d words, want 2", s.Rank, s.WordsSent)
		}
	}
}
