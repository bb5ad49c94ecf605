package packunpack_test

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"packunpack"
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
// its clocks are wall time.
func TestConformanceVirtualMetricsSimOnly(t *testing.T) {
	const n, p = 48, 4
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: p, W: 3})
	locals, fields, maskLocals, _, _, _ := conformanceWorkload(layout, n)
	opt := packunpack.Options{Scheme: packunpack.CMS}

	run := func(cm conformanceMachine) ([]packunpack.Stats, float64) {
		m := cm.build(t, p)
		runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
		return m.Stats(), m.MaxClock()
	}
	simCM, realCM := conformanceMachines[0], conformanceMachines[1]
	simStats, simClock := run(simCM)
	// Sim: full virtual equality on a fresh machine, clock included.
	if again, clock := run(simCM); !reflect.DeepEqual(again, simStats) || clock != simClock {
		t.Errorf("repeated sim runs disagree on virtual metrics")
	}
	// Real: identical message/word traffic (same algorithm decisions),
	// wall clocks that cannot meaningfully equal the virtual ones.
	realStats, _ := run(realCM)
	for r := 0; r < p; r++ {
		if realStats[r].MsgsSent != simStats[r].MsgsSent || realStats[r].WordsSent != simStats[r].WordsSent {
			t.Errorf("rank %d: real traffic (%d msgs/%d words) != sim traffic (%d msgs/%d words)",
				r, realStats[r].MsgsSent, realStats[r].WordsSent, simStats[r].MsgsSent, simStats[r].WordsSent)
		}
	}
}

// TestCrossBackendConformanceWithMetrics re-runs a grid point on every
// machine with a telemetry registry attached: instrumentation must
// never perturb the packed/unpacked bytes (results still byte-identical
// to the oracle and to each other), and the registry must actually have
// recorded — the comm and pack layers instrument through the Endpoint,
// so both backends produce the same counter families.
func TestCrossBackendConformanceWithMetrics(t *testing.T) {
	const n = 48
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: 8, W: 3})
	locals, fields, maskLocals, global, gmask, gfield := conformanceWorkload(layout, n)
	wantPacked := packunpack.SeqPack(global, gmask)
	wantBack := packunpack.SeqUnpack(wantPacked, gmask, gfield)
	opt := packunpack.Options{Scheme: packunpack.CMS}

	instrumented := []struct {
		name string
		cfg  packunpack.Config
		b    packunpack.Backend
	}{
		{"sim-coop", packunpack.Config{Procs: 8, Params: packunpack.CM5Params()}, packunpack.BackendSim},
		{"real", packunpack.Config{Procs: 8, Params: packunpack.CM5Params()}, packunpack.BackendReal},
	}
	var first *packOutcome
	var firstName string
	for _, im := range instrumented {
		reg := packunpack.NewMetricsRegistry()
		im.cfg.Metrics = reg
		m, err := packunpack.NewBackendMachine(im.b, im.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runPackUnpack(t, m, layout, locals, fields, maskLocals, opt)
		if got.size != len(wantPacked) || !reflect.DeepEqual(got.packed, wantPacked) || !reflect.DeepEqual(got.unpacked, wantBack) {
			t.Fatalf("%s with metrics attached diverged from oracle", im.name)
		}
		if first == nil {
			first, firstName = &got, im.name
		} else if !reflect.DeepEqual(got, *first) {
			t.Fatalf("%s and %s disagree with metrics attached", im.name, firstName)
		}
		snap := reg.Snapshot()
		for _, family := range []string{"comm_calls_total", "pack_calls_total", "pack_bytes_total"} {
			f, ok := snap.Family(family)
			if !ok || f.Total() == 0 {
				t.Errorf("%s: metric family %s empty or missing — instrumentation did not record", im.name, family)
			}
		}
	}
}

// TestRealLinkBytesReconcileWithSimStats pins the acceptance contract
// of the real backend's telemetry at P=8: the per-link byte and message
// totals in the registry must reconcile exactly with the emulator's
// Stats for the same workload — every rank's outgoing link bytes sum to
// its sim WordsSent x 8 (and likewise messages), because both backends
// take identical algorithm decisions and the link meters count exactly
// the charged sends.
func TestRealLinkBytesReconcileWithSimStats(t *testing.T) {
	const n, p = 96, 8
	layout := packunpack.MustLayout(packunpack.Dim{N: n, P: p, W: 4})
	locals, fields, maskLocals, _, _, _ := conformanceWorkload(layout, n)
	opt := packunpack.Options{Scheme: packunpack.CMS}

	simM, err := packunpack.NewBackendMachine(packunpack.BackendSim,
		packunpack.Config{Procs: p, Params: packunpack.CM5Params()})
	if err != nil {
		t.Fatal(err)
	}
	runPackUnpack(t, simM, layout, locals, fields, maskLocals, opt)
	simStats := simM.Stats()

	reg := packunpack.NewMetricsRegistry()
	realM, err := packunpack.NewBackendMachine(packunpack.BackendReal,
		packunpack.Config{Procs: p, Params: packunpack.CM5Params(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runPackUnpack(t, realM, layout, locals, fields, maskLocals, opt)

	snap := reg.Snapshot()
	bytesBySrc := make([]int64, p)
	msgsBySrc := make([]int64, p)
	sumLinks := func(family string, out []int64) {
		f, ok := snap.Family(family)
		if !ok {
			t.Fatalf("registry has no %s family", family)
		}
		for _, c := range f.Children {
			src, err := strconv.Atoi(c.LabelValues[0])
			if err != nil || src < 0 || src >= p {
				t.Fatalf("%s: malformed src label %v", family, c.LabelValues)
			}
			out[src] += c.Value
		}
	}
	sumLinks("transport_link_bytes_total", bytesBySrc)
	sumLinks("transport_link_msgs_total", msgsBySrc)
	for r := 0; r < p; r++ {
		if want := simStats[r].WordsSent * 8; bytesBySrc[r] != want {
			t.Errorf("rank %d: registry link bytes %d, sim stats say %d", r, bytesBySrc[r], want)
		}
		if want := simStats[r].MsgsSent; msgsBySrc[r] != want {
			t.Errorf("rank %d: registry link msgs %d, sim stats say %d", r, msgsBySrc[r], want)
		}
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
