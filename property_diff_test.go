package packunpack_test

// Property-based differential test: random layouts (rank 1-7, arbitrary
// extents including zero, arbitrary BLOCK(b)/CYCLIC(b) per dimension,
// arbitrary grids), random mask densities (including all-true and
// all-false), every scheme and optional fault schedules are driven
// through distributed PACK and UNPACK and compared
// against the sequential reference of internal/seq. Every case then
// replays through the transparent plan cache (a cold compiling call
// and a cache-hit call) and must stay byte-identical to the unplanned
// results. Every case is reproducible from its logged seed; a failing
// case is auto-shrunk (extents and grid halved while the failure
// persists) before being reported.

import (
	"fmt"
	"math/rand"
	"testing"

	pu "packunpack"
)

type propCase struct {
	dims     []pu.Dim
	maskKind int     // 0 random, 1 all-true, 2 all-false
	density  float64 // for maskKind 0
	scheme   pu.Scheme
	vectorW  int
	faults   *pu.FaultConfig
	valSeed  int64 // seeds array values and mask draws
}

func (c propCase) String() string {
	return fmt.Sprintf("dims=%v maskKind=%d density=%.2f scheme=%v vectorW=%d faults=%v valSeed=%d",
		c.dims, c.maskKind, c.density, c.scheme, c.vectorW, c.faults.String(), c.valSeed)
}

// drawCase derives one configuration from a case seed. Extent products
// are capped near 400 and grids at 8 processors to keep 200+ cases
// cheap; block sizes may exceed extents and grids may exceed element
// counts on purpose.
func drawCase(rng *rand.Rand) propCase {
	d := 1 + rng.Intn(7)
	dims := make([]pu.Dim, d)
	size, procs := 1, 1
	for i := range dims {
		n := rng.Intn(6)
		if rng.Intn(8) == 0 {
			n = 0 // zero-extent dimension (Fortran 90 allows it)
		}
		if n > 1 && size*n > 400 {
			n = rng.Intn(2)
		}
		if n > 0 {
			size *= n
		}
		p := 1 + rng.Intn(3)
		if procs*p > 8 {
			p = 1
		}
		procs *= p
		dims[i] = pu.Dim{N: n, P: p, W: 1 + rng.Intn(5)}
	}
	c := propCase{
		dims:    dims,
		scheme:  []pu.Scheme{pu.SSS, pu.CSS, pu.CMS}[rng.Intn(3)],
		vectorW: []int{0, 1, 2, 3}[rng.Intn(4)],
		valSeed: rng.Int63(),
	}
	switch k := rng.Intn(20); {
	case k < 3:
		c.maskKind = 1
	case k < 6:
		c.maskKind = 2
	default:
		c.density = rng.Float64()
	}
	if rng.Intn(5) < 2 {
		c.faults = &pu.FaultConfig{
			Seed:    rng.Uint64(),
			Drop:    0.15 * rng.Float64(),
			Dup:     0.15 * rng.Float64(),
			Reorder: 0.2 * rng.Float64(),
			Delay:   0.2 * rng.Float64(),
			Stall:   0.05 * rng.Float64(),
		}
	}
	return c
}

// runPropCase executes one case end to end and returns a description of
// the first divergence from the sequential reference, or nil.
func runPropCase(c propCase) error {
	layout, err := pu.NewGeneralLayout(c.dims...)
	if err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	nGlobal := layout.GlobalSize()
	rng := rand.New(rand.NewSource(c.valSeed))
	global := make([]int, nGlobal)
	gmask := make([]bool, nGlobal)
	for i := range global {
		global[i] = rng.Intn(1 << 20)
		switch c.maskKind {
		case 1:
			gmask[i] = true
		case 2:
			gmask[i] = false
		default:
			gmask[i] = rng.Float64() < c.density
		}
	}

	want := pu.SeqPack(global, gmask)
	uvec := make([]int, len(want))
	for i := range uvec {
		uvec[i] = 1_000_000 + 3*i
	}
	wantUnpack := pu.SeqUnpack(uvec, gmask, global)

	locals := pu.ScatterGeneral(layout, global)
	maskLocals := pu.ScatterGeneral(layout, gmask)
	nprocs := layout.Procs()
	vdist, err := pu.NewVectorDist(len(want), nprocs, c.vectorW)
	if err != nil {
		return fmt.Errorf("vector dist: %w", err)
	}
	uscheme := c.scheme
	if uscheme == pu.CMS {
		uscheme = pu.CSS // CMS is PACK-only
	}

	m := pu.NewMachine(pu.Config{Procs: nprocs, Params: pu.CM5Params(), Faults: c.faults})
	packRes := make([]*pu.PackResult[int], nprocs)
	unpackOut := make([][]int, nprocs)
	err = m.Run(func(p *pu.Proc) {
		opt := pu.Options{Scheme: c.scheme, VectorW: c.vectorW}
		res, err := pu.PackGeneral(p, layout, locals[p.Rank()], maskLocals[p.Rank()], opt)
		if err != nil {
			panic(err)
		}
		packRes[p.Rank()] = res
		lv := make([]int, vdist.LocalLen(p.Rank()))
		for i := range lv {
			lv[i] = uvec[vdist.ToGlobal(p.Rank(), i)]
		}
		opt.Scheme = uscheme
		ur, err := pu.UnpackGeneral(p, layout, lv, len(want), maskLocals[p.Rank()], locals[p.Rank()], opt)
		if err != nil {
			panic(err)
		}
		unpackOut[p.Rank()] = ur.A
	})
	if err != nil {
		return fmt.Errorf("machine run: %w", err)
	}

	got := make([]int, len(want))
	for rank, res := range packRes {
		if res.Ranking.Size != len(want) {
			return fmt.Errorf("rank %d: selected count %d, reference %d", rank, res.Ranking.Size, len(want))
		}
		for i, v := range res.V {
			got[res.Vec.ToGlobal(rank, i)] = v
		}
	}
	if !equalInts(got, want) {
		return fmt.Errorf("pack mismatch:\n got %v\nwant %v", got, want)
	}
	if gotUnpack := pu.GatherGeneral(layout, unpackOut); !equalInts(gotUnpack, wantUnpack) {
		return fmt.Errorf("unpack mismatch:\n got %v\nwant %v", gotUnpack, wantUnpack)
	}

	// Replay the same case through the transparent plan cache on a
	// fresh machine: call 1 compiles per rank (a miss), call 2 hits,
	// and both calls must be byte-identical to the unplanned results
	// above — under the same fault schedule.
	cache := pu.NewPlanCache()
	plannedV := make([][2][]int, nprocs)
	plannedA := make([][2][]int, nprocs)
	pm := pu.NewMachine(pu.Config{Procs: nprocs, Params: pu.CM5Params(), Faults: c.faults})
	err = pm.Run(func(p *pu.Proc) {
		for call := 0; call < 2; call++ {
			opt := pu.Options{Scheme: c.scheme, VectorW: c.vectorW, Plans: cache}
			res, err := pu.PackGeneral(p, layout, locals[p.Rank()], maskLocals[p.Rank()], opt)
			if err != nil {
				panic(err)
			}
			plannedV[p.Rank()][call] = res.V
			lv := make([]int, vdist.LocalLen(p.Rank()))
			for i := range lv {
				lv[i] = uvec[vdist.ToGlobal(p.Rank(), i)]
			}
			opt.Scheme = uscheme
			ur, err := pu.UnpackGeneral(p, layout, lv, len(want), maskLocals[p.Rank()], locals[p.Rank()], opt)
			if err != nil {
				panic(err)
			}
			plannedA[p.Rank()][call] = ur.A
		}
	})
	if err != nil {
		return fmt.Errorf("planned machine run: %w", err)
	}
	for rank := 0; rank < nprocs; rank++ {
		for call := 0; call < 2; call++ {
			if !equalInts(plannedV[rank][call], packRes[rank].V) {
				return fmt.Errorf("rank %d planned pack call %d diverges from unplanned:\n got %v\nwant %v",
					rank, call, plannedV[rank][call], packRes[rank].V)
			}
			if !equalInts(plannedA[rank][call], unpackOut[rank]) {
				return fmt.Errorf("rank %d planned unpack call %d diverges from unplanned:\n got %v\nwant %v",
					rank, call, plannedA[rank][call], unpackOut[rank])
			}
		}
	}
	// Two distinct plans per rank (pack and unpack differ at least in
	// vector length), each compiled on call 1 and hit on call 2.
	if st := cache.Stats(); st.Misses != 2*nprocs || st.Hits != 2*nprocs {
		return fmt.Errorf("plan cache stats %+v, want %d misses and %d hits", st, 2*nprocs, 2*nprocs)
	}
	return nil
}

// equalInts compares element-wise, treating nil and empty as equal
// (reflect.DeepEqual does not).
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shrinkCase halves every extent and every grid dimension; repeated
// application drives a failing case toward a minimal reproducer.
func shrinkCase(c propCase) propCase {
	s := c
	s.dims = append([]pu.Dim(nil), c.dims...)
	for i := range s.dims {
		s.dims[i].N /= 2
		if s.dims[i].P > 1 {
			s.dims[i].P = (s.dims[i].P + 1) / 2
		}
	}
	return s
}

func sameDims(a, b []pu.Dim) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPropertyDifferential(t *testing.T) {
	const cases = 220
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < cases; i++ {
		caseSeed := rng.Int63()
		c := drawCase(rand.New(rand.NewSource(caseSeed)))
		err := runPropCase(c)
		if err == nil {
			continue
		}
		// Shrink: keep halving while the failure reproduces.
		small, serr := c, err
		for k := 0; k < 16; k++ {
			cand := shrinkCase(small)
			if sameDims(cand.dims, small.dims) {
				break
			}
			cerr := runPropCase(cand)
			if cerr == nil {
				break
			}
			small, serr = cand, cerr
		}
		t.Fatalf("case %d failed (reproduce with case seed %d):\n  %v\n  error: %v\nshrunk reproducer:\n  %v\n  error: %v",
			i, caseSeed, c, err, small, serr)
	}
}
