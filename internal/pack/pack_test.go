package pack

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// layouts used across the correctness tests: a spread of ranks, grid
// shapes and block sizes, including cyclic (W=1), block (W=L) and
// non-power-of-two processor counts.
func testLayouts() map[string]*dist.Layout {
	return map[string]*dist.Layout{
		"1d-cyclic":      dist.MustLayout(dist.Dim{N: 16, P: 4, W: 1}),
		"1d-blockcyclic": dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2}),
		"1d-block":       dist.MustLayout(dist.Dim{N: 16, P: 4, W: 4}),
		"1d-np2":         dist.MustLayout(dist.Dim{N: 30, P: 3, W: 5}),
		"1d-big":         dist.MustLayout(dist.Dim{N: 256, P: 8, W: 4}),
		"2d-square":      dist.MustLayout(dist.Dim{N: 8, P: 2, W: 2}, dist.Dim{N: 8, P: 2, W: 2}),
		"2d-cyclic":      dist.MustLayout(dist.Dim{N: 8, P: 2, W: 1}, dist.Dim{N: 8, P: 2, W: 1}),
		"2d-mixed":       dist.MustLayout(dist.Dim{N: 12, P: 2, W: 3}, dist.Dim{N: 6, P: 3, W: 1}),
		"2d-flat":        dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2}, dist.Dim{N: 4, P: 1, W: 4}),
		"3d":             dist.MustLayout(dist.Dim{N: 4, P: 2, W: 1}, dist.Dim{N: 4, P: 2, W: 2}, dist.Dim{N: 4, P: 1, W: 4}),
		"3d-wide":        dist.MustLayout(dist.Dim{N: 8, P: 2, W: 2}, dist.Dim{N: 6, P: 1, W: 3}, dist.Dim{N: 6, P: 3, W: 2}),
	}
}

func testMasks(l *dist.Layout) map[string]mask.Gen {
	shape := make([]int, l.Rank())
	for i, d := range l.Dims {
		shape[i] = d.N
	}
	gens := map[string]mask.Gen{
		"empty":  mask.Empty{},
		"full":   mask.Full{},
		"d10":    mask.NewRandom(0.10, 1, shape...),
		"d50":    mask.NewRandom(0.50, 2, shape...),
		"d90":    mask.NewRandom(0.90, 3, shape...),
		"single": singleTrue{shape: shape},
	}
	if l.Rank() == 1 {
		gens["lt"] = mask.FirstHalf{N: shape[0]}
	}
	if l.Rank() == 2 {
		gens["lt"] = mask.UpperTriangle{}
	}
	return gens
}

// singleTrue selects exactly one element, near the end of the array.
type singleTrue struct{ shape []int }

func (s singleTrue) At(global []int) bool {
	pos, stride := 0, 1
	for i, g := range global {
		pos += g * stride
		stride *= s.shape[i]
	}
	total := stride
	return pos == total-1-total/3
}

// runPack executes Pack on an emulated machine and checks the gathered
// result vector against the sequential oracle.
func runPack(t *testing.T, l *dist.Layout, gen mask.Gen, opt Options) {
	t.Helper()
	n := l.GlobalSize()
	global := make([]int, n)
	for i := range global {
		global[i] = i * 10
	}
	gmask := mask.FillGlobal(l, gen)
	want := seq.Pack(global, gmask)
	if want == nil {
		want = []int{}
	}

	locals := dist.Scatter(l, global)
	m := sim.MustNew(sim.Config{Procs: l.Procs()})
	results := make([]*Result[int], l.Procs())
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		res, err := Pack(p, l, locals[p.Rank()], lm, opt)
		if err != nil {
			panic(err)
		}
		results[p.Rank()] = res
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}

	got := make([]int, len(want))
	for rank, r := range results {
		if r.Ranking.Size != len(want) {
			t.Fatalf("rank %d reports Size=%d, oracle %d", rank, r.Ranking.Size, len(want))
		}
		if len(r.V) != r.Vec.LocalLen(rank) {
			t.Fatalf("rank %d holds %d vector elements, distribution gives %d", rank, len(r.V), r.Vec.LocalLen(rank))
		}
		for i, v := range r.V {
			got[r.Vec.ToGlobal(rank, i)] = v
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed vector mismatch:\n got %v\nwant %v", got, want)
	}
}

// runUnpack executes Unpack and checks the gathered result array
// against the sequential oracle.
func runUnpack(t *testing.T, l *dist.Layout, gen mask.Gen, slack int, opt Options) {
	t.Helper()
	gmask := mask.FillGlobal(l, gen)
	size := seq.Count(gmask)
	nPrime := size + slack
	vGlobal := make([]int, nPrime)
	for i := range vGlobal {
		vGlobal[i] = 1000 + i
	}
	fGlobal := make([]int, l.GlobalSize())
	for i := range fGlobal {
		fGlobal[i] = -1 - i
	}
	want := seq.Unpack(vGlobal, gmask, fGlobal)

	vec, err := dist.NewBlockVector(nPrime, l.Procs())
	if err != nil {
		t.Fatal(err)
	}
	fLocals := dist.Scatter(l, fGlobal)

	m := sim.MustNew(sim.Config{Procs: l.Procs()})
	results := make([]*UnpackResult[int], l.Procs())
	err = m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		start := vec.Start(p.Rank())
		vLocal := make([]int, vec.LocalLen(p.Rank()))
		for i := range vLocal {
			vLocal[i] = vGlobal[start+i]
		}
		res, err := Unpack(p, l, vLocal, nPrime, lm, fLocals[p.Rank()], opt)
		if err != nil {
			panic(err)
		}
		results[p.Rank()] = res
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}

	aLocals := make([][]int, l.Procs())
	for r, res := range results {
		aLocals[r] = res.A
	}
	got := dist.Gather(l, aLocals)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unpacked array mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestPackMatchesOracle(t *testing.T) {
	for lname, l := range testLayouts() {
		for mname, gen := range testMasks(l) {
			for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
				name := fmt.Sprintf("%s/%s/%s", lname, mname, scheme)
				t.Run(name, func(t *testing.T) {
					runPack(t, l, gen, Options{Scheme: scheme})
				})
			}
		}
	}
}

func TestUnpackMatchesOracle(t *testing.T) {
	for lname, l := range testLayouts() {
		for mname, gen := range testMasks(l) {
			for _, scheme := range []Scheme{SchemeSSS, SchemeCSS} {
				for _, slack := range []int{0, 7} {
					name := fmt.Sprintf("%s/%s/%s/slack%d", lname, mname, scheme, slack)
					t.Run(name, func(t *testing.T) {
						runUnpack(t, l, gen, slack, Options{Scheme: scheme})
					})
				}
			}
		}
	}
}

func TestPackVariants(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 64, P: 4, W: 4})
	shape := []int{64}
	gen := mask.NewRandom(0.4, 7, shape...)
	variants := map[string]Options{
		"whole-slice-scan": {Scheme: SchemeCSS, WholeSliceScan: true},
		"cms-whole-scan":   {Scheme: SchemeCMS, WholeSliceScan: true},
		"prs-direct":       {Scheme: SchemeCMS, PRS: comm.PRSDirect},
		"prs-split":        {Scheme: SchemeCMS, PRS: comm.PRSSplit},
		"separate-prs":     {Scheme: SchemeSSS, SeparatePrefixReduce: true},
		"a2a-skipempty":    {Scheme: SchemeCMS, A2A: comm.A2AOptions{SkipEmpty: true}},
		"a2a-naive":        {Scheme: SchemeSSS, A2A: comm.A2AOptions{Naive: true}},
		"a2a-naive-skip":   {Scheme: SchemeCSS, A2A: comm.A2AOptions{Naive: true, SkipEmpty: true}},
	}
	for name, opt := range variants {
		t.Run(name, func(t *testing.T) {
			runPack(t, l, gen, opt)
		})
	}
	t.Run("unpack-whole-scan", func(t *testing.T) {
		runUnpack(t, l, gen, 0, Options{Scheme: SchemeCSS, WholeSliceScan: true})
	})
	t.Run("unpack-skipempty", func(t *testing.T) {
		runUnpack(t, l, gen, 3, Options{Scheme: SchemeSSS, A2A: comm.A2AOptions{SkipEmpty: true}})
	})
}

func TestUnpackVectorTooShort(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2})
	m := sim.MustNew(sim.Config{Procs: 4})
	var sawErr bool
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), mask.Full{}) // Size = 16
		vec, _ := dist.NewBlockVector(8, 4)            // N' = 8 < 16
		v := make([]int, vec.LocalLen(p.Rank()))
		f := make([]int, l.LocalSize())
		_, err := Unpack(p, l, v, 8, lm, f, Options{Scheme: SchemeCSS})
		if err == nil {
			panic("expected error for N' < Size")
		}
		if p.Rank() == 0 {
			sawErr = true
		}
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}
	if !sawErr {
		t.Fatal("error was not raised")
	}
}

func TestPackBadLocalSizes(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2})
	m := sim.MustNew(sim.Config{Procs: 4})
	err := m.Run(func(p *sim.Proc) {
		_, err := Pack(p, l, make([]int, 3), make([]bool, 4), Options{})
		if err == nil {
			panic("expected size mismatch error")
		}
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	cases := map[Scheme]string{SchemeSSS: "SSS", SchemeCSS: "CSS", SchemeCMS: "CMS", Scheme(9): "Scheme(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestUnknownSchemeRejected pins the input check of the scheme, which
// is a cold call's charge policy: Pack, Unpack and CompilePlan, cold
// and with a plan cache, must return an error for a scheme outside the
// three on every rank of both backends, and must do so before any
// collective, so the machine sends no message.
func TestUnknownSchemeRejected(t *testing.T) {
	const procs = 2
	l := dist.MustLayout(dist.Dim{N: 16, P: procs, W: 2})
	gen := mask.NewRandom(0.5, 3, 16)
	calls := map[string]func(p transport.Endpoint, opt Options) error{
		"Pack": func(p transport.Endpoint, opt Options) error {
			_, err := Pack(p, l, make([]int, l.LocalSize()), mask.FillLocal(l, p.Rank(), gen), opt)
			return err
		},
		"Unpack": func(p transport.Endpoint, opt Options) error {
			vec, _ := dist.NewBlockVector(16, procs)
			v := make([]int, vec.LocalLen(p.Rank()))
			_, err := Unpack(p, l, v, 16, mask.FillLocal(l, p.Rank(), gen), make([]int, l.LocalSize()), opt)
			return err
		},
		"CompilePlan": func(p transport.Endpoint, opt Options) error {
			_, err := CompilePlan(p, l, mask.FillLocal(l, p.Rank(), gen), opt)
			return err
		},
	}
	for _, backend := range []transport.Backend{transport.BackendSim, transport.BackendReal} {
		for name, call := range calls {
			for _, plans := range []*PlanCache{nil, NewPlanCache()} {
				m, err := transport.New(backend, sim.Config{Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				errs := make([]error, procs)
				if err := m.Run(func(p transport.Endpoint) {
					errs[p.Rank()] = call(p, Options{Scheme: Scheme(7), Plans: plans})
				}); err != nil {
					t.Fatalf("%v %s plans=%v: %v", backend, name, plans != nil, err)
				}
				for r, err := range errs {
					if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
						t.Errorf("%v %s plans=%v: rank %d returned %v, want an unknown-scheme error", backend, name, plans != nil, r, err)
					}
				}
				for _, s := range m.Stats() {
					if s.MsgsSent != 0 {
						t.Errorf("%v %s plans=%v: rank %d sent %d messages before rejecting the scheme", backend, name, plans != nil, s.Rank, s.MsgsSent)
					}
				}
			}
		}
	}
}
