package pack

import (
	"fmt"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

// runGeneralOracle drives PackGeneral and UnpackGeneral end to end on a
// machine with the given fault plan and compares both
// results against the sequential reference. Element values are a fixed
// function of the global position, so a faulted run must reproduce them
// exactly.
func runGeneralOracle(t *testing.T, dims []dist.Dim, maskAt func(int) bool, opt Options, faults *sim.FaultConfig) {
	t.Helper()
	gl := dist.MustGeneralLayout(dims...)
	n := gl.GlobalSize()
	global := make([]int, n)
	gmask := make([]bool, n)
	for i := range global {
		global[i] = 11*i + 5
		gmask[i] = maskAt(i)
	}
	want := seq.Pack(global, gmask)
	uvec := make([]int, len(want))
	for i := range uvec {
		uvec[i] = 900_000 + 7*i
	}
	wantUnpack := seq.Unpack(uvec, gmask, global)

	locals := dist.ScatterGeneral(gl, global)
	maskLocals := dist.ScatterGeneral(gl, gmask)
	nprocs := gl.Procs()
	vdist, err := dist.NewVectorDist(len(want), nprocs, opt.VectorW)
	if err != nil {
		t.Fatal(err)
	}
	uopt := opt
	if uopt.Scheme == SchemeCMS {
		uopt.Scheme = SchemeCSS
	}

	m := sim.MustNew(sim.Config{Procs: nprocs, Params: sim.CM5Params(), Faults: faults})
	packRes := make([]*Result[int], nprocs)
	unpackOut := make([][]int, nprocs)
	if err := m.Run(func(p *sim.Proc) {
		res, err := PackGeneral(p, gl, locals[p.Rank()], maskLocals[p.Rank()], opt)
		if err != nil {
			panic(err)
		}
		packRes[p.Rank()] = res
		lv := make([]int, vdist.LocalLen(p.Rank()))
		for i := range lv {
			lv[i] = uvec[vdist.ToGlobal(p.Rank(), i)]
		}
		ur, err := UnpackGeneral(p, gl, lv, len(want), maskLocals[p.Rank()], locals[p.Rank()], uopt)
		if err != nil {
			panic(err)
		}
		unpackOut[p.Rank()] = ur.A
	}); err != nil {
		t.Fatalf("dims %v faults %v: %v", dims, faults, err)
	}

	got := make([]int, len(want))
	for rank, res := range packRes {
		if res.Ranking.Size != len(want) {
			t.Fatalf("dims %v: rank %d counted %d selected, reference %d", dims, rank, res.Ranking.Size, len(want))
		}
		for i, v := range res.V {
			got[res.Vec.ToGlobal(rank, i)] = v
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dims %v faults %v: pack[%d] = %d, want %d", dims, faults, i, got[i], want[i])
		}
	}
	gotUnpack := dist.GatherGeneral(gl, unpackOut)
	for i := range wantUnpack {
		if gotUnpack[i] != wantUnpack[i] {
			t.Fatalf("dims %v faults %v: unpack[%d] = %d, want %d", dims, faults, i, gotUnpack[i], wantUnpack[i])
		}
	}
}

var faultSchedules = []*sim.FaultConfig{
	nil,
	{Seed: 21, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Delay: 0.1, Stall: 0.03},
	{Seed: 22, Drop: 0.3},
	{Seed: 23, Dup: 0.2, Reorder: 0.3},
}

// TestPackSchemesUnderFaults: every scheme under several fault
// schedules remains byte-identical to the sequential reference. The
// "coop" in the subtest names is the emulator's cooperative scheduler.
func TestPackSchemesUnderFaults(t *testing.T) {
	dims := []dist.Dim{{N: 10, P: 2, W: 3}, {N: 7, P: 3, W: 2}}
	maskAt := func(i int) bool { return i%3 != 1 }
	for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
		for fi, f := range faultSchedules {
			t.Run(fmt.Sprintf("%v/coop/f%d", scheme, fi), func(t *testing.T) {
				runGeneralOracle(t, dims, maskAt, Options{Scheme: scheme}, f)
			})
		}
	}
}

// TestPackEdgeCasesUnderDrops: degenerate shapes — block size larger
// than the extent, more processors than elements, zero-extent
// dimensions — and extreme masks, all under injected drops and
// duplicates.
func TestPackEdgeCasesUnderDrops(t *testing.T) {
	drops := &sim.FaultConfig{Seed: 33, Drop: 0.25, Dup: 0.1}
	cases := []struct {
		name   string
		dims   []dist.Dim
		maskAt func(int) bool
	}{
		{"block-exceeds-extent", []dist.Dim{{N: 3, P: 2, W: 5}}, func(i int) bool { return i%2 == 0 }},
		{"procs-exceed-elements", []dist.Dim{{N: 2, P: 4, W: 1}}, func(int) bool { return true }},
		{"all-true", []dist.Dim{{N: 12, P: 3, W: 2}}, func(int) bool { return true }},
		{"all-false", []dist.Dim{{N: 12, P: 3, W: 2}}, func(int) bool { return false }},
		{"zero-extent", []dist.Dim{{N: 0, P: 2, W: 2}, {N: 5, P: 2, W: 1}}, func(int) bool { return true }},
	}
	for _, tc := range cases {
		for _, scheme := range []Scheme{SchemeSSS, SchemeCMS} {
			t.Run(fmt.Sprintf("%s/%v/coop", tc.name, scheme), func(t *testing.T) {
				runGeneralOracle(t, tc.dims, tc.maskAt, Options{Scheme: scheme}, drops)
			})
		}
	}
}

// TestPackFaultReportPhases: a faulted Pack surfaces its injection
// activity in the machine's FaultReport, attributed to named phases.
func TestPackFaultReportPhases(t *testing.T) {
	gl := dist.MustGeneralLayout(dist.Dim{N: 24, P: 4, W: 2})
	global := make([]int, 24)
	gmask := make([]bool, 24)
	for i := range global {
		global[i] = i
		gmask[i] = i%2 == 0
	}
	locals := dist.ScatterGeneral(gl, global)
	maskLocals := dist.ScatterGeneral(gl, gmask)
	m := sim.MustNew(sim.Config{Procs: 4, Params: sim.CM5Params(),
		Faults: &sim.FaultConfig{Seed: 44, Drop: 0.2, Dup: 0.2}})
	if err := m.Run(func(p *sim.Proc) {
		if _, err := PackGeneral(p, gl, locals[p.Rank()], maskLocals[p.Rank()], Options{Scheme: SchemeCMS}); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := m.FaultReport()
	if rep == nil || rep.Total.Injected() == 0 {
		t.Fatal("faulted pack run injected nothing")
	}
	if len(rep.PerPhase) == 0 {
		t.Fatal("no per-phase fault attribution")
	}
	var sum sim.FaultCounters
	for _, c := range rep.PerPhase {
		sum.Attempts += c.Attempts
		sum.Drops += c.Drops
	}
	if sum.Attempts != rep.Total.Attempts || sum.Drops != rep.Total.Drops {
		t.Errorf("per-phase counters %+v do not sum to total %+v", sum, rep.Total)
	}
}
