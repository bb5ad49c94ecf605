package packunpack_test

import (
	"fmt"
	"reflect"
	"testing"

	"packunpack"
	"packunpack/internal/trace"
	"packunpack/internal/transport"
)

// This file is the cross-backend conformance suite: the same PACK and
// UNPACK workload runs on the emulator and on the real shared-memory
// backend, and the gathered results must be byte-identical everywhere
// (and equal to the sequential oracle). The backends are two different
// machines, so only the results — not the virtual metrics — can be
// compared.

// conformanceMachine is one way to run an SPMD body.
type conformanceMachine struct {
	name  string
	build func(t *testing.T, procs int) packunpack.ParallelMachine
}

var conformanceMachines = []conformanceMachine{
	{"sim-coop", func(t *testing.T, procs int) packunpack.ParallelMachine {
		m, err := packunpack.NewBackendMachine(packunpack.BackendSim,
			packunpack.Config{Procs: procs, Params: packunpack.CM5Params()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
	{"real", func(t *testing.T, procs int) packunpack.ParallelMachine {
		m, err := packunpack.NewBackendMachine(packunpack.BackendReal,
			packunpack.Config{Procs: procs, Params: packunpack.CM5Params()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
}

// packOutcome is everything a conformance run observes: the packed
// vector, its reported global size, and the unpacked round trip.
type packOutcome struct {
	size     int
	packed   []int
	unpacked []int
}

// runPackUnpack executes PACK then UNPACK on machine m and gathers the
// distributed results back to flat global arrays.
func runPackUnpack(t *testing.T, m packunpack.ParallelMachine, layout *packunpack.Layout,
	locals, fields [][]int, maskLocals [][]bool, opt packunpack.Options) packOutcome {
	t.Helper()
	p := m.Procs()
	packed := make([][]int, p)
	unpacked := make([][]int, p)
	sizes := make([]int, p)
	unpackOpt := opt
	if unpackOpt.Scheme == packunpack.CMS {
		unpackOpt.Scheme = packunpack.CSS // CMS is PACK-only
	}
	err := m.Run(func(e packunpack.Endpoint) {
		r := e.Rank()
		res, err := packunpack.Pack(e, layout, locals[r], maskLocals[r], opt)
		if err != nil {
			panic(err)
		}
		packed[r] = res.V
		sizes[r] = res.Vec.Size
		back, err := packunpack.Unpack(e, layout, res.V, res.Vec.Size, maskLocals[r], fields[r], unpackOpt)
		if err != nil {
			panic(err)
		}
		unpacked[r] = back.A
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var flat []int
	for _, b := range packed {
		flat = append(flat, b...)
	}
	return packOutcome{
		size:     sizes[0],
		packed:   flat,
		unpacked: packunpack.Gather(layout, unpacked),
	}
}

// conformanceWorkload builds the deterministic global array, mask and
// field used by every grid point, plus the per-processor scatters.
func conformanceWorkload(layout *packunpack.Layout, n int) (locals, fields [][]int, maskLocals [][]bool, global []int, gmask []bool, gfield []int) {
	global = make([]int, n)
	gmask = make([]bool, n)
	gfield = make([]int, n)
	for i := range global {
		global[i] = 7*i + 3
		gmask[i] = i%3 != 1 // density 2/3, irregular block boundaries
		gfield[i] = -(i + 1)
	}
	return packunpack.Scatter(layout, global), packunpack.Scatter(layout, gfield),
		packunpack.Scatter(layout, gmask), global, gmask, gfield
}

// TestCrossBackendConformance pins sim-vs-real byte-identical PACK and
// UNPACK results for every scheme x backend x P of the grid,
// including non-power-of-two machine sizes.
func TestCrossBackendConformance(t *testing.T) {
	const n = 48
	grid := []struct {
		p, w int
	}{{2, 4}, {3, 4}, {4, 3}, {8, 3}}
	schemes := []struct {
		name string
		s    packunpack.Scheme
	}{{"SSS", packunpack.SSS}, {"CSS", packunpack.CSS}, {"CMS", packunpack.CMS}}

	for _, g := range grid {
		layout := packunpack.MustLayout(packunpack.Dim{N: n, P: g.p, W: g.w})
		locals, fields, maskLocals, global, gmask, gfield := conformanceWorkload(layout, n)
		wantPacked := packunpack.SeqPack(global, gmask)
		wantBack := packunpack.SeqUnpack(wantPacked, gmask, gfield)

		for _, sc := range schemes {
			t.Run(fmt.Sprintf("P=%d/%s", g.p, sc.name), func(t *testing.T) {
				opt := packunpack.Options{Scheme: sc.s}
				var first *packOutcome
				var firstName string
				for _, cm := range conformanceMachines {
					m := cm.build(t, g.p)
					got := runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
					if got.size != len(wantPacked) || !reflect.DeepEqual(got.packed, wantPacked) {
						t.Fatalf("%s: packed = %v (size %d), oracle %v", cm.name, got.packed, got.size, wantPacked)
					}
					if !reflect.DeepEqual(got.unpacked, wantBack) {
						t.Fatalf("%s: unpack round trip diverged from oracle", cm.name)
					}
					if first == nil {
						first, firstName = &got, cm.name
						continue
					}
					if !reflect.DeepEqual(got, *first) {
						t.Fatalf("%s and %s disagree: %+v vs %+v", cm.name, firstName, got, *first)
					}
				}
			})
		}
	}
}

// TestCrossBackendConformancePRS runs the grid's PRS axis: every
// prefix-reduction-sum variant must give identical ranks — and thus
// identical results — on every machine.
func TestCrossBackendConformancePRS(t *testing.T) {
	const n = 48
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: 4, W: 3})
	locals, fields, maskLocals, global, gmask, gfield := conformanceWorkload(layout, n)
	wantPacked := packunpack.SeqPack(global, gmask)
	wantBack := packunpack.SeqUnpack(wantPacked, gmask, gfield)

	prs := []struct {
		name string
		a    packunpack.PRSAlgorithm
	}{{"auto", packunpack.PRSAuto}, {"direct", packunpack.PRSDirect}, {"split", packunpack.PRSSplit}}
	for _, pa := range prs {
		t.Run(pa.name, func(t *testing.T) {
			opt := packunpack.Options{Scheme: packunpack.CSS, PRS: pa.a}
			for _, cm := range conformanceMachines {
				m := cm.build(t, 4)
				got := runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
				if !reflect.DeepEqual(got.packed, wantPacked) || !reflect.DeepEqual(got.unpacked, wantBack) {
					t.Fatalf("%s: PRS %s diverged from oracle", cm.name, pa.name)
				}
			}
		})
	}
}

// TestCrossBackendConformancePlans pins the plan-cache path: compile on
// first call, execute cached bulk-copy plans on repeats, identical
// results on every machine and on every repeat. The plan compiler's
// agreement protocol (the 2-word PRS over the fingerprint) must stay
// deadlock-free on the real backend too.
func TestCrossBackendConformancePlans(t *testing.T) {
	const n, p, reps = 48, 4, 3
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: p, W: 3})
	locals, fields, maskLocals, global, gmask, gfield := conformanceWorkload(layout, n)
	wantPacked := packunpack.SeqPack(global, gmask)
	wantBack := packunpack.SeqUnpack(wantPacked, gmask, gfield)

	for _, cm := range conformanceMachines {
		t.Run(cm.name, func(t *testing.T) {
			m := cm.build(t, p)
			cache := packunpack.NewPlanCache()
			opt := packunpack.Options{Scheme: packunpack.CMS, Plans: cache}
			for rep := 0; rep < reps; rep++ {
				got := runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
				if !reflect.DeepEqual(got.packed, wantPacked) || !reflect.DeepEqual(got.unpacked, wantBack) {
					t.Fatalf("rep %d diverged from oracle", rep)
				}
			}
			stats := cache.Stats()
			if stats.Misses == 0 || stats.Hits == 0 {
				t.Errorf("plan cache never engaged: %+v", stats)
			}
		})
	}
}

// TestCrossBackendExplicitPlanAPI drives the two-step CompilePlan /
// PlanPack / PlanUnpack API on all machines.
func TestCrossBackendExplicitPlanAPI(t *testing.T) {
	const n, p = 48, 3
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: p, W: 4})
	locals, fields, maskLocals, global, gmask, gfield := conformanceWorkload(layout, n)
	wantPacked := packunpack.SeqPack(global, gmask)
	wantBack := packunpack.SeqUnpack(wantPacked, gmask, gfield)

	for _, cm := range conformanceMachines {
		t.Run(cm.name, func(t *testing.T) {
			m := cm.build(t, p)
			packed := make([][]int, p)
			unpacked := make([][]int, p)
			err := m.Run(func(e packunpack.Endpoint) {
				r := e.Rank()
				pl, err := packunpack.CompilePlan(e, layout, maskLocals[r], packunpack.Options{Scheme: packunpack.CSS})
				if err != nil {
					panic(err)
				}
				res, err := packunpack.PlanPack(e, pl, locals[r])
				if err != nil {
					panic(err)
				}
				packed[r] = res.V
				back, err := packunpack.PlanUnpack(e, pl, res.V, fields[r])
				if err != nil {
					panic(err)
				}
				unpacked[r] = back.A
			})
			if err != nil {
				t.Fatal(err)
			}
			var flat []int
			for _, b := range packed {
				flat = append(flat, b...)
			}
			if !reflect.DeepEqual(flat, wantPacked) {
				t.Fatalf("planned pack = %v, oracle %v", flat, wantPacked)
			}
			if got := packunpack.Gather(layout, unpacked); !reflect.DeepEqual(got, wantBack) {
				t.Fatal("planned unpack diverged from oracle")
			}
		})
	}
}

// TestConformanceVirtualMetricsSimOnly documents the metric contract of
// the suite: two emulator runs agree on virtual metrics exactly, while
// the real backend shares only the op/message/word counters' meaning —
// its clocks are wall time. Per-rank traffic is pinned at P=4 and P=8.
func TestConformanceVirtualMetricsSimOnly(t *testing.T) {
	for _, in := range []struct{ n, p, w int }{{48, 4, 3}, {96, 8, 4}} {
		layout := packunpack.MustLayout(packunpack.Dim{N: in.n, P: in.p, W: in.w})
		locals, fields, maskLocals, _, _, _ := conformanceWorkload(layout, in.n)
		opt := packunpack.Options{Scheme: packunpack.CMS}

		run := func(cm conformanceMachine) ([]packunpack.Stats, float64) {
			m := cm.build(t, in.p)
			runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
			return m.Stats(), m.MaxClock()
		}
		simCM, realCM := conformanceMachines[0], conformanceMachines[1]
		simStats, simClock := run(simCM)
		// Sim: full virtual equality on a fresh machine, clock included.
		if again, clock := run(simCM); !reflect.DeepEqual(again, simStats) || clock != simClock {
			t.Errorf("P=%d: repeated sim runs disagree on virtual metrics", in.p)
		}
		// Real: identical message/word traffic (same algorithm decisions),
		// wall clocks that cannot meaningfully equal the virtual ones.
		realStats, _ := run(realCM)
		for r := 0; r < in.p; r++ {
			if realStats[r].MsgsSent != simStats[r].MsgsSent || realStats[r].WordsSent != simStats[r].WordsSent {
				t.Errorf("P=%d rank %d: real traffic (%d msgs/%d words) != sim traffic (%d msgs/%d words)",
					in.p, r, realStats[r].MsgsSent, realStats[r].WordsSent, simStats[r].MsgsSent, simStats[r].WordsSent)
			}
		}
	}
}

// TestRealLinkBytesReconcileWithSimStats pins the real backend's link
// traffic, as its send events count it, to the emulator's accounting at
// P=8: per sender, the bytes (8 per word) and messages an AggSink sums
// over the real machine's links equal the emulator's Stats for the same
// CMS round trip, and the two machines' link matrices agree cell by
// cell, in total and per phase.
func TestRealLinkBytesReconcileWithSimStats(t *testing.T) {
	const n, p = 96, 8
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: p, W: 4})
	locals, fields, maskLocals, _, _, _ := conformanceWorkload(layout, n)
	opt := packunpack.Options{Scheme: packunpack.CMS}

	run := func(b packunpack.Backend) ([]packunpack.Stats, *trace.CommMatrix) {
		agg := trace.NewAggSink(p)
		m, err := packunpack.NewBackendMachine(b,
			packunpack.Config{Procs: p, Params: packunpack.CM5Params(), Sink: agg})
		if err != nil {
			t.Fatal(err)
		}
		runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
		return m.Stats(), agg.Matrix()
	}
	simStats, simLinks := run(packunpack.BackendSim)
	_, realLinks := run(packunpack.BackendReal)

	for r := 0; r < p; r++ {
		var bytes, msgs int64
		for d := 0; d < p; d++ {
			bytes += realLinks.Total.Words[r*p+d] * 8
			msgs += realLinks.Total.Msgs[r*p+d]
		}
		if want := simStats[r].WordsSent * 8; bytes != want {
			t.Errorf("rank %d: real link bytes %d, sim stats say %d", r, bytes, want)
		}
		if want := simStats[r].MsgsSent; msgs != want {
			t.Errorf("rank %d: real link msgs %d, sim stats say %d", r, msgs, want)
		}
	}
	if !reflect.DeepEqual(realLinks.Total, simLinks.Total) {
		t.Errorf("real and sim link matrices differ:\nreal: %+v\nsim:  %+v", realLinks.Total, simLinks.Total)
	}
	if !reflect.DeepEqual(realLinks.ByPhase, simLinks.ByPhase) {
		t.Errorf("real and sim per-phase link matrices differ")
	}
}

// TestConformanceSuiteCoversBothBackendKinds guards the suite itself:
// if someone trims the machine list, the backend axis must survive.
func TestConformanceSuiteCoversBothBackendKinds(t *testing.T) {
	seen := map[transport.Backend]bool{}
	for _, cm := range conformanceMachines {
		m := cm.build(t, 2)
		seen[m.Backend()] = true
	}
	if !seen[transport.BackendSim] || !seen[transport.BackendReal] {
		t.Fatalf("conformance machines cover %v; need both sim and real", seen)
	}
}
