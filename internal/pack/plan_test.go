package pack

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// planLayouts is the subset of the correctness layouts the plan tests
// sweep (every shape class: cyclic, block-cyclic, block, non-power-of-
// two, multi-dimensional).
func planLayouts() map[string]*dist.Layout {
	return map[string]*dist.Layout{
		"1d-cyclic": dist.MustLayout(dist.Dim{N: 16, P: 4, W: 1}),
		"1d-block":  dist.MustLayout(dist.Dim{N: 16, P: 4, W: 4}),
		"1d-np2":    dist.MustLayout(dist.Dim{N: 30, P: 3, W: 5}),
		"2d-mixed":  dist.MustLayout(dist.Dim{N: 12, P: 2, W: 3}, dist.Dim{N: 6, P: 3, W: 1}),
		"3d":        dist.MustLayout(dist.Dim{N: 4, P: 2, W: 1}, dist.Dim{N: 4, P: 2, W: 2}, dist.Dim{N: 4, P: 1, W: 4}),
	}
}

// planExec runs PACK and UNPACK on every processor through the given
// body variant and returns the gathered vector/array results, so the
// planned variants can be compared byte-for-byte with the unplanned
// one.
type planOutputs struct {
	packV   [][]int // per-rank result vector portions
	unpackA []int   // gathered result array
	size    int
}

func planExecCase(t *testing.T, l *dist.Layout, gen mask.Gen, opt Options, backend transport.Backend,
	body func(p transport.Endpoint, a []int, m []bool, v []int, nPrime int, field []int) (*Result[int], *UnpackResult[int])) planOutputs {
	t.Helper()
	n := l.GlobalSize()
	global := make([]int, n)
	fGlobal := make([]int, n)
	for i := range global {
		global[i] = i*10 + 1
		fGlobal[i] = -1 - i
	}
	gmask := mask.FillGlobal(l, gen)
	size := seq.Count(gmask)
	vGlobal := make([]int, size)
	for i := range vGlobal {
		vGlobal[i] = 1000 + i
	}
	vdist, err := dist.NewVectorDist(size, l.Procs(), opt.VectorW)
	if err != nil {
		t.Fatal(err)
	}
	locals := dist.Scatter(l, global)
	fLocals := dist.Scatter(l, fGlobal)

	m, err := transport.New(backend, sim.Config{Procs: l.Procs()})
	if err != nil {
		t.Fatal(err)
	}
	out := planOutputs{packV: make([][]int, l.Procs()), size: size}
	aLocals := make([][]int, l.Procs())
	err = m.Run(func(p transport.Endpoint) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		vLocal := make([]int, vdist.LocalLen(p.Rank()))
		for i := range vLocal {
			vLocal[i] = vGlobal[vdist.ToGlobal(p.Rank(), i)]
		}
		pr, ur := body(p, locals[p.Rank()], lm, vLocal, size, fLocals[p.Rank()])
		out.packV[p.Rank()] = pr.V
		aLocals[p.Rank()] = ur.A
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}
	out.unpackA = dist.Gather(l, aLocals)
	return out
}

// planSchedules are the two ways every plan case schedules its ranks,
// named sched0 and sched1 in the subtests: concurrently on the real
// backend, and one at a time on the emulator.
var planSchedules = []transport.Backend{transport.BackendReal, transport.BackendSim}

// TestPlanMatchesUnplanned sweeps layouts, masks, schemes, vector block
// sizes and both rank schedules, executing each configuration three
// ways — unplanned, explicit CompilePlan+PlanPack/PlanUnpack, and the
// transparent cache path called twice (cold compile, then cache hit) —
// and requires byte-identical vector and array results.
func TestPlanMatchesUnplanned(t *testing.T) {
	for lname, l := range planLayouts() {
		shape := make([]int, l.Rank())
		for i, d := range l.Dims {
			shape[i] = d.N
		}
		gens := map[string]mask.Gen{
			"empty": mask.Empty{},
			"full":  mask.Full{},
			"d50":   mask.NewRandom(0.50, 2, shape...),
		}
		for mname, gen := range gens {
			for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
				for _, vw := range []int{0, 3} {
					for sched, backend := range planSchedules {
						opt := Options{Scheme: scheme, VectorW: vw}
						uopt := opt
						if scheme == SchemeCMS {
							uopt.Scheme = SchemeCSS // CMS is PACK-only
						}
						name := fmt.Sprintf("%s/%s/%s/w%d/sched%d", lname, mname, scheme, vw, sched)
						t.Run(name, func(t *testing.T) {
							base := planExecCase(t, l, gen, opt, backend, func(p transport.Endpoint, a []int, m []bool, v []int, nPrime int, field []int) (*Result[int], *UnpackResult[int]) {
								pr, err := Pack(p, l, a, m, opt)
								if err != nil {
									panic(err)
								}
								ur, err := Unpack(p, l, v, nPrime, m, field, uopt)
								if err != nil {
									panic(err)
								}
								return pr, ur
							})

							explicit := planExecCase(t, l, gen, opt, backend, func(p transport.Endpoint, a []int, m []bool, v []int, nPrime int, field []int) (*Result[int], *UnpackResult[int]) {
								pl, err := CompilePlan(p, l, m, opt)
								if err != nil {
									panic(err)
								}
								pr, err := PlanPack(p, pl, a)
								if err != nil {
									panic(err)
								}
								upl, err := CompilePlan(p, l, m, uopt)
								if err != nil {
									panic(err)
								}
								ur, err := PlanUnpack(p, upl, v, field)
								if err != nil {
									panic(err)
								}
								return pr, ur
							})

							cache := NewPlanCache()
							copt, cuopt := opt, uopt
							copt.Plans, cuopt.Plans = cache, cache
							var warm planOutputs
							for call := 0; call < 2; call++ {
								warm = planExecCase(t, l, gen, opt, backend, func(p transport.Endpoint, a []int, m []bool, v []int, nPrime int, field []int) (*Result[int], *UnpackResult[int]) {
									pr, err := Pack(p, l, a, m, copt)
									if err != nil {
										panic(err)
									}
									ur, err := Unpack(p, l, v, nPrime, m, field, cuopt)
									if err != nil {
										panic(err)
									}
									return pr, ur
								})
							}
							st := cache.Stats()
							if st.Hits == 0 || st.Misses == 0 {
								t.Fatalf("cache saw hits=%d misses=%d; want both cold misses and warm hits", st.Hits, st.Misses)
							}

							for rank := range base.packV {
								if !reflect.DeepEqual(explicit.packV[rank], base.packV[rank]) {
									t.Fatalf("rank %d: explicit plan V %v, unplanned %v", rank, explicit.packV[rank], base.packV[rank])
								}
								if !reflect.DeepEqual(warm.packV[rank], base.packV[rank]) {
									t.Fatalf("rank %d: cached plan V %v, unplanned %v", rank, warm.packV[rank], base.packV[rank])
								}
							}
							if !reflect.DeepEqual(explicit.unpackA, base.unpackA) {
								t.Fatalf("explicit plan A %v, unplanned %v", explicit.unpackA, base.unpackA)
							}
							if !reflect.DeepEqual(warm.unpackA, base.unpackA) {
								t.Fatalf("cached plan A %v, unplanned %v", warm.unpackA, base.unpackA)
							}
						})
					}
				}
			}
		}
	}
}

// TestPlanCacheCounters pins the exact hit/miss accounting of the
// transparent path: the first machine run compiles one PACK and one
// UNPACK plan per rank, every later run hits both.
func TestPlanCacheCounters(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 64, P: 4, W: 4})
	gen := mask.NewRandom(0.4, 7, 64)
	cache := NewPlanCache()
	opt := Options{Scheme: SchemeCSS, Plans: cache}
	const calls = 5
	for call := 0; call < calls; call++ {
		planExecCase(t, l, gen, Options{Scheme: SchemeCSS}, transport.BackendSim, func(p transport.Endpoint, a []int, m []bool, v []int, nPrime int, field []int) (*Result[int], *UnpackResult[int]) {
			pr, err := Pack(p, l, a, m, opt)
			if err != nil {
				panic(err)
			}
			ur, err := Unpack(p, l, v, nPrime, m, field, opt)
			if err != nil {
				panic(err)
			}
			return pr, ur
		})
	}
	st := cache.Stats()
	wantMiss := 2 * l.Procs() // pack + unpack plan per rank, first run only
	wantHit := 2 * l.Procs() * (calls - 1)
	if st.Misses != wantMiss || st.Hits != wantHit || st.Plans != wantMiss {
		t.Fatalf("stats = %+v; want Misses=%d Hits=%d Plans=%d", st, wantMiss, wantHit, wantMiss)
	}
	if got, want := st.HitRate(), float64(wantHit)/float64(wantHit+wantMiss); got != want {
		t.Fatalf("HitRate() = %v, want %v", got, want)
	}
}

// TestPlanCacheRaceSharedAcrossMachines hammers one cache from several
// concurrently running real-backend machines, whose ranks also run
// concurrently (run under -race in CI): the unanimity vote must keep
// every machine consistent even while another machine's compiled plans
// land in the shared map mid-lookup, and every machine must still
// produce the oracle result.
func TestPlanCacheRaceSharedAcrossMachines(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 96, P: 4, W: 8})
	gen := mask.NewRandom(0.5, 11, 96)
	gmask := mask.FillGlobal(l, gen)
	global := make([]int, 96)
	for i := range global {
		global[i] = i * 3
	}
	want := seq.Pack(global, gmask)
	locals := dist.Scatter(l, global)

	cache := NewPlanCache()
	opt := Options{Scheme: SchemeCMS, Plans: cache}
	const machines = 6
	var wg sync.WaitGroup
	errs := make([]error, machines)
	for mi := 0; mi < machines; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			m := transport.MustNewReal(transport.RealConfig{Procs: l.Procs()})
			results := make([]*Result[int], l.Procs())
			err := m.Run(func(p transport.Endpoint) {
				lm := mask.FillLocal(l, p.Rank(), gen)
				res, err := Pack(p, l, locals[p.Rank()], lm, opt)
				if err != nil {
					panic(err)
				}
				results[p.Rank()] = res
			})
			if err != nil {
				errs[mi] = err
				return
			}
			got := make([]int, len(want))
			for rank, r := range results {
				for i, v := range r.V {
					got[r.Vec.ToGlobal(rank, i)] = v
				}
			}
			if !reflect.DeepEqual(got, want) {
				errs[mi] = fmt.Errorf("machine %d: got %v, want %v", mi, got, want)
			}
		}(mi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Hits+st.Misses != machines*l.Procs() {
		t.Fatalf("stats %+v: want %d lookups total", st, machines*l.Procs())
	}
}

// TestPlanRetainsNoRecords guards the compile path's memory behavior:
// plans always rank in counter-only form, so the retained ranking
// result must carry no materialized Records — even when the options
// name the simple storage scheme.
func TestPlanRetainsNoRecords(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 64, P: 4, W: 4})
	gen := mask.NewRandom(0.6, 5, 64)
	m := sim.MustNew(sim.Config{Procs: l.Procs()})
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		pl, err := CompilePlan(p, l, lm, Options{Scheme: SchemeSSS})
		if err != nil {
			panic(err)
		}
		if pl.Ranking().Records != nil {
			panic(fmt.Sprintf("rank %d: plan retains %d records", p.Rank(), len(pl.Ranking().Records)))
		}
		if pl.Size() == 0 {
			panic(fmt.Sprintf("rank %d: degenerate plan size=%d", p.Rank(), pl.Size()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanVectorTransparent checks the transparent path under the
// Fortran 90 VECTOR argument: pad values must survive beyond the
// packed elements on both the cold and the warm call.
func TestPlanVectorTransparent(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 32, P: 4, W: 2})
	gen := mask.NewRandom(0.3, 9, 32)
	gmask := mask.FillGlobal(l, gen)
	global := make([]int, 32)
	for i := range global {
		global[i] = 100 + i
	}
	size := seq.Count(gmask)
	nVec := size + 6
	padGlobal := make([]int, nVec)
	for i := range padGlobal {
		padGlobal[i] = -9000 - i
	}
	want := seq.PackVector(global, gmask, padGlobal)
	locals := dist.Scatter(l, global)
	vdist, err := dist.NewVectorDist(nVec, l.Procs(), 0)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewPlanCache()
	opt := Options{Scheme: SchemeCMS, Plans: cache}
	for call := 0; call < 2; call++ {
		m := sim.MustNew(sim.Config{Procs: l.Procs()})
		results := make([]*Result[int], l.Procs())
		err := m.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), gen)
			pad := make([]int, vdist.LocalLen(p.Rank()))
			for i := range pad {
				pad[i] = padGlobal[vdist.ToGlobal(p.Rank(), i)]
			}
			res, err := PackVector(p, l, locals[p.Rank()], lm, pad, nVec, opt)
			if err != nil {
				panic(err)
			}
			results[p.Rank()] = res
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, nVec)
		for rank, r := range results {
			for i, v := range r.V {
				got[r.Vec.ToGlobal(rank, i)] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: got %v, want %v", call, got, want)
		}
	}
	if st := cache.Stats(); st.Misses != l.Procs() || st.Hits != l.Procs() {
		t.Fatalf("stats %+v: want %d misses then %d hits", st, l.Procs(), l.Procs())
	}
}

// TestPlanErrors pins the error behavior of the plan APIs.
func TestPlanErrors(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 2, W: 4})
	gen := mask.NewRandom(0.5, 3, 16)
	m := sim.MustNew(sim.Config{Procs: l.Procs()})
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		a := make([]int, l.LocalSize())

		if _, err := CompilePlan(p, l, lm[:1], Options{}); err == nil {
			panic("short mask accepted")
		}
		if _, err := CompilePlan(p, l, lm, Options{Scheme: Scheme(42)}); err == nil {
			panic("unknown scheme accepted")
		}

		pl, err := CompilePlan(p, l, lm, Options{Scheme: SchemeCMS})
		if err != nil {
			panic(err)
		}
		if _, err := PlanPack(p, pl, a[:1]); err == nil {
			panic("short array accepted")
		}
		if _, err := PlanUnpack(p, pl, make([]int, pl.Vec().LocalLen(p.Rank())), a); err == nil {
			panic("CMS plan accepted for UNPACK")
		}

		upl, err := CompilePlan(p, l, lm, Options{Scheme: SchemeCSS})
		if err != nil {
			panic(err)
		}
		if _, err := PlanUnpack(p, upl, make([]int, 99), a); err == nil {
			panic("mis-sized vector accepted")
		}
		if _, err := PlanUnpack(p, upl, make([]int, upl.Vec().LocalLen(p.Rank())), a[:1]); err == nil {
			panic("short field accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMaskFingerprintDistinguishes spot-checks the fingerprint: masks
// differing in one element, in trailing length, or only in layout /
// scheme / vector block size must key different plans.
func TestMaskFingerprintDistinguishes(t *testing.T) {
	m1 := make([]bool, 130)
	m2 := make([]bool, 130)
	m1[129] = true
	if maskFingerprint(m1) == maskFingerprint(m2) {
		t.Fatal("single-bit difference not reflected")
	}
	if maskFingerprint(m1[:64]) == maskFingerprint(m1[:65]) {
		t.Fatal("length difference not reflected")
	}
	l := dist.MustLayout(dist.Dim{N: 16, P: 2, W: 4})
	l2 := dist.MustLayout(dist.Dim{N: 16, P: 2, W: 2})
	lm := make([]bool, l.LocalSize())
	if planFingerprint(l, lm, Options{}, -1) == planFingerprint(l2, lm, Options{}, -1) {
		t.Fatal("layout difference not reflected")
	}
	if planFingerprint(l, lm, Options{Scheme: SchemeCSS}, -1) == planFingerprint(l, lm, Options{Scheme: SchemeCMS}, -1) {
		t.Fatal("scheme difference not reflected")
	}
	if planFingerprint(l, lm, Options{VectorW: 1}, -1) == planFingerprint(l, lm, Options{VectorW: 2}, -1) {
		t.Fatal("vector block difference not reflected")
	}
	if planFingerprint(l, lm, Options{}, -1) == planFingerprint(l, lm, Options{}, 8) {
		t.Fatal("vector length difference not reflected")
	}
}
