package pack

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// boolsOf unpacks n mask elements from bitset words.
func boolsOf(sel []uint64, n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = sel[i/64]>>(i%64)&1 == 1
	}
	return m
}

// laneBefore returns the state of word j's lane of maskChain(seed, sel)
// just before word j enters it.
func laneBefore(seed uint64, sel []uint64, j int) uint64 {
	h := mix64(seed + uint64(j&3))
	for k := j & 3; k < j; k += 4 {
		h = mix64(h ^ sel[k])
	}
	return h
}

// collide returns a copy of the mask words a that differs from a in
// words i, i+4, ..., j (i < j, both in one lane of maskChain) and still
// hashes like a from seed: the words before j change at random, and
// word j undoes the change of the lane's state. Two masks built this
// way key the same plan in a cache whose seed is seed.
func collide(rng *rand.Rand, seed uint64, a []uint64, i, j int) []uint64 {
	if i >= j || (j-i)%4 != 0 {
		panic("collide: words i and j must be distinct words of one lane")
	}
	b := slices.Clone(a)
	for k := i; k < j; k += 4 {
		b[k] ^= rng.Uint64() | 1
	}
	b[j] = a[j] ^ laneBefore(seed, a, j) ^ laneBefore(seed, b, j)
	return b
}

// planCall is one call of a plan-hit test: the machine's global mask.
type planCall struct {
	mask []bool
	hit  bool // whether every rank should hit the cache
}

// runPlanCalls runs, on one machine of the given backend, a CMS PACK
// and a CSS UNPACK per call through one plan cache, and compares every
// result with internal/seq. UNPACK takes N' = the array size, so its
// key does not depend on the mask's count. Each call must hit or miss
// on every rank as the call says.
func runPlanCalls(t *testing.T, backend transport.Backend, l *dist.Layout, cache *PlanCache, calls []planCall) {
	t.Helper()
	n := l.GlobalSize()
	global, field, vGlobal := make([]int, n), make([]int, n), make([]int, n)
	for i := range global {
		global[i], field[i], vGlobal[i] = i*10+1, -1-i, 1000+i
	}
	locals, fLocals := dist.Scatter(l, global), dist.Scatter(l, field)
	vdist, err := dist.NewVectorDist(n, l.Procs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := transport.New(backend, sim.Config{Procs: l.Procs()})
	if err != nil {
		t.Fatal(err)
	}
	for ci, call := range calls {
		mLocals := dist.Scatter(l, call.mask)
		packed := make([]int, seq.Count(call.mask))
		aLocals := make([][]int, l.Procs())
		before := cache.Stats()
		err := m.Run(func(p transport.Endpoint) {
			r := p.Rank()
			pr, err := Pack(p, l, locals[r], mLocals[r], Options{Scheme: SchemeCMS, Plans: cache})
			if err != nil {
				panic(err)
			}
			dist.GatherVector(pr.Vec, r, pr.V, packed)
			v := make([]int, vdist.LocalLen(r))
			dist.ScatterVector(vdist, r, vGlobal, v)
			ur, err := Unpack(p, l, v, n, mLocals[r], fLocals[r], Options{Scheme: SchemeCSS, Plans: cache})
			if err != nil {
				panic(err)
			}
			aLocals[r] = ur.A
		})
		if err != nil {
			t.Fatalf("call %d: %v", ci, err)
		}
		if want := seq.Pack(global, call.mask); !slices.Equal(packed, want) {
			t.Fatalf("call %d: PACK %v, seq.Pack %v", ci, packed, want)
		}
		if got, want := dist.Gather(l, aLocals), seq.Unpack(vGlobal, call.mask, field); !slices.Equal(got, want) {
			t.Fatalf("call %d: UNPACK %v, seq.Unpack %v", ci, got, want)
		}
		st := cache.Stats()
		hits := st.Hits - before.Hits
		if want := 2 * l.Procs(); call.hit && hits != want || !call.hit && hits != 0 {
			t.Fatalf("call %d: %d hits (stats %+v), want hit=%v on every rank", ci, hits, st, call.hit)
		}
	}
}

// TestPlanHitChecksMaskWords pins the plan-hit check on both backends:
// rank 0's second mask differs from its first in words 0 and 4 but
// keys the same plan in this cache (the pair is built from the cache's
// own seed, and the test checks that the keys collide), while rank 1's
// mask stays. Trusting the key would return the first mask's result;
// the word compare makes rank 0 contribute no stored fingerprint, so
// the whole machine misses, recompiles and matches internal/seq. A
// repeat of the second mask then hits.
func TestPlanHitChecksMaskWords(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 640, P: 2, W: 64})
	for _, backend := range planSchedules {
		rng := rand.New(rand.NewSource(3))
		cache := NewPlanCache()
		words := make([][]uint64, 2)
		for r := range words {
			for range 5 {
				words[r] = append(words[r], rng.Uint64())
			}
		}
		crafted := collide(rng, cache.seed, words[0], 0, 4)
		for _, opt := range []Options{{Scheme: SchemeCMS}, {Scheme: SchemeCSS}} {
			vecLen := -1
			if opt.Scheme == SchemeCSS {
				vecLen = l.GlobalSize()
			}
			if planFingerprint(cache.seed, l, words[0], opt, vecLen) != planFingerprint(cache.seed, l, crafted, opt, vecLen) {
				t.Fatalf("%v: crafted words %x do not collide with %x", opt.Scheme, crafted, words[0])
			}
		}
		globalOf := func(rank0 []uint64) []bool {
			return dist.Gather(l, [][]bool{boolsOf(rank0, l.LocalSize()), boolsOf(words[1], l.LocalSize())})
		}
		runPlanCalls(t, backend, l, cache, []planCall{
			{mask: globalOf(words[0])},
			{mask: globalOf(crafted)},
			{mask: globalOf(crafted), hit: true},
			{mask: globalOf(words[0])},
		})
	}
}

// TestPlanHitPropertyCraftedPairs runs random mask pairs that differ in
// a few words on one or more ranks and key the same plans in the
// cache: random P, layout and densities, changed words of one lane
// before a full fix-up word. Every call, including a return to the first
// masks, must match internal/seq, and no crafted call may hit.
func TestPlanHitPropertyCraftedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		procs := 2 + rng.Intn(3)
		w := []int{1, 8, 64, 100}[rng.Intn(4)]
		local := w * (1 + (319 / w) + rng.Intn(3)) // at least 320 elements: five full words
		l := dist.MustLayout(dist.Dim{N: procs * local, P: procs, W: w})
		cache := NewPlanCache()
		first, second := make([][]bool, procs), make([][]bool, procs)
		density := rng.Float64()
		for r := range first {
			m := make([]bool, local)
			for i := range m {
				m[i] = rng.Float64() < density
			}
			first[r], second[r] = m, m
			if r == 0 || rng.Intn(2) == 0 {
				j := 4 + rng.Intn(local/64-4) // a full word with an earlier word in its lane
				a := refBits(m)
				b := collide(rng, cache.seed, a, j-4*(1+rng.Intn(j/4)), j)
				if planFingerprint(cache.seed, l, a, Options{Scheme: SchemeCMS}, -1) != planFingerprint(cache.seed, l, b, Options{Scheme: SchemeCMS}, -1) {
					t.Fatalf("trial %d rank %d: crafted words do not collide", trial, r)
				}
				second[r] = boolsOf(b, local)
			}
		}
		name := fmt.Sprintf("trial %d: %v", trial, l)
		t.Run(name, func(t *testing.T) {
			runPlanCalls(t, transport.BackendSim, l, cache, []planCall{
				{mask: dist.Gather(l, first)},
				{mask: dist.Gather(l, second)},
				{mask: dist.Gather(l, first)},
			})
		})
	}
}
