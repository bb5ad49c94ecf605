package pack

import (
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"testing"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// costRow is one row of the cost-digest table: an operation, its
// options and whether the call repeats on one PlanCache (warm), with
// the digest of every run of its grid (costDigestGrid).
type costRow struct {
	name   string
	unpack bool
	opt    Options
	warm   bool
	faults bool
	digest uint64
}

// costRows pins the virtual costs of every scheme, cold and warm, to
// the figures recorded when each scheme still had its own host message
// format. A digest covers, for every run of the row's grid, each rank's
// final sim.Stats (floats by their bits, phases and fault counters
// included) and its whole event stream (every field but the
// machine-global sequence number), so a Charge that moves, merges or
// splits, or a message sent at other words, changes it. There is no
// update flag: a digest that must move needs a reason in the change
// that moves it.
var costRows = []costRow{
	{name: "PACK SSS cold", opt: Options{Scheme: SchemeSSS}, digest: 0xad880fa91553268e},
	{name: "PACK CSS cold", opt: Options{Scheme: SchemeCSS}, digest: 0x85053bc8953cabff},
	{name: "PACK CMS cold", opt: Options{Scheme: SchemeCMS}, digest: 0x45d68383c578a778},
	{name: "UNPACK SSS cold", unpack: true, opt: Options{Scheme: SchemeSSS}, digest: 0x94dc5c7202051636},
	{name: "UNPACK CSS cold", unpack: true, opt: Options{Scheme: SchemeCSS}, digest: 0xf452af12c53acb04},
	{name: "PACK SSS warm", opt: Options{Scheme: SchemeSSS}, warm: true, digest: 0x46bbaadacebee6d4},
	{name: "PACK CSS warm", opt: Options{Scheme: SchemeCSS}, warm: true, digest: 0x46bbaadacebee6d4},
	{name: "PACK CMS warm", opt: Options{Scheme: SchemeCMS}, warm: true, digest: 0x46bbaadacebee6d4},
	{name: "UNPACK SSS warm", unpack: true, opt: Options{Scheme: SchemeSSS}, warm: true, digest: 0x4e37808800572f56},
	{name: "UNPACK CSS warm", unpack: true, opt: Options{Scheme: SchemeCSS}, warm: true, digest: 0x4e37808800572f56},
	{name: "PACK CSS whole-slice cold", opt: Options{Scheme: SchemeCSS, WholeSliceScan: true}, digest: 0xe622a368f44bbd58},
	{name: "UNPACK CSS whole-slice cold", unpack: true, opt: Options{Scheme: SchemeCSS, WholeSliceScan: true}, digest: 0x515b9ef071c3b0f8},
	{name: "PACK SSS skip-empty cold", opt: Options{Scheme: SchemeSSS, A2A: comm.A2AOptions{SkipEmpty: true}}, digest: 0xa03d0d7643954988},
	{name: "PACK CSS skip-empty cold", opt: Options{Scheme: SchemeCSS, A2A: comm.A2AOptions{SkipEmpty: true}}, digest: 0x75483785a0512e4d},
	{name: "PACK CMS skip-empty cold", opt: Options{Scheme: SchemeCMS, A2A: comm.A2AOptions{SkipEmpty: true}}, digest: 0xa83082084129cd54},
	{name: "UNPACK SSS skip-empty cold", unpack: true, opt: Options{Scheme: SchemeSSS, A2A: comm.A2AOptions{SkipEmpty: true}}, digest: 0x7916cdac3a200be1},
	{name: "UNPACK CSS skip-empty cold", unpack: true, opt: Options{Scheme: SchemeCSS, A2A: comm.A2AOptions{SkipEmpty: true}}, digest: 0x607320357843f22e},
	{name: "PACK CMS skip-empty warm", opt: Options{Scheme: SchemeCMS, A2A: comm.A2AOptions{SkipEmpty: true}}, warm: true, digest: 0xa0cf59abbd4aa583},
	{name: "UNPACK CSS skip-empty warm", unpack: true, opt: Options{Scheme: SchemeCSS, A2A: comm.A2AOptions{SkipEmpty: true}}, warm: true, digest: 0x04efd830de6c80af},
	{name: "PACK SSS faults cold", opt: Options{Scheme: SchemeSSS}, faults: true, digest: 0x83b8b1149f0e3a97},
	{name: "PACK CSS faults cold", opt: Options{Scheme: SchemeCSS}, faults: true, digest: 0x64f7900771a22e9c},
	{name: "PACK CMS faults cold", opt: Options{Scheme: SchemeCMS}, faults: true, digest: 0xde2fe0089c83184c},
	{name: "UNPACK SSS faults cold", unpack: true, opt: Options{Scheme: SchemeSSS}, faults: true, digest: 0x27acf1cd9b8af9c6},
	{name: "UNPACK CSS faults cold", unpack: true, opt: Options{Scheme: SchemeCSS}, faults: true, digest: 0x1a022066ab7d1235},
	{name: "PACK CMS faults warm", opt: Options{Scheme: SchemeCMS}, faults: true, warm: true, digest: 0x070a6dd7192e0f1d},
	{name: "UNPACK CSS faults warm", unpack: true, opt: Options{Scheme: SchemeCSS}, faults: true, warm: true, digest: 0x660ca013734d8da3},
}

// costLayouts are the grid's layouts on procs processors: 1-D at W_0 1,
// 3 and 64 (3 makes slices straddle mask words) and a 2-D layout.
func costLayouts(procs int) []*dist.Layout {
	var out []*dist.Layout
	for _, w0 := range []int{1, 3, 64} {
		tiles := max(2, 130/w0)
		out = append(out, dist.MustLayout(dist.Dim{N: procs * tiles * w0, P: procs, W: w0}))
	}
	p0 := map[int]int{2: 2, 3: 1, 4: 2}[procs]
	p1 := procs / p0
	return append(out, dist.MustLayout(dist.Dim{N: 12 * p0, P: p0, W: 3}, dist.Dim{N: 4 * p1, P: p1, W: 2}))
}

// costFaults is the seeded fault plan of the faults rows.
var costFaults = sim.FaultConfig{Seed: 29, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Delay: 0.1, Stall: 0.03}

// costDigestGrid runs the row on every point of the grid (P 2–4, the
// costLayouts, VectorW 0 and 2, densities 0, 0.1, 0.5 and 1) on the
// emulator and feeds every run's costs to h.
func costDigestGrid(t *testing.T, row costRow, h hash.Hash64) {
	for procs := 2; procs <= 4; procs++ {
		for li, l := range costLayouts(procs) {
			for _, vw := range []int{0, 2} {
				for di, density := range []float64{0, 0.1, 0.5, 1} {
					fmt.Fprintf(h, "P=%d layout=%d VectorW=%d density=%d\n", procs, li, vw, di)
					if err := costRun(row, l, vw, density, h); err != nil {
						t.Fatalf("%s: P=%d layout %v VectorW=%d density %v: %v", row.name, procs, l, vw, density, err)
					}
				}
			}
		}
	}
}

// costRun runs the row's operation once (warm: twice, on one
// PlanCache) at one grid point, checks the last call's result against
// internal/seq and digests the run.
func costRun(row costRow, l *dist.Layout, vw int, density float64, h hash.Hash64) error {
	procs, n := l.Procs(), l.GlobalSize()
	shape := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		shape[i] = d.N
	}
	gmask := mask.FillGlobal(l, mask.NewRandom(density, 17, shape...))
	global, field := make([]int, n), make([]int, n)
	for i := range global {
		global[i], field[i] = 10*i+7, -1-i
	}
	packed := seq.Pack(global, gmask)
	vec, err := dist.NewVectorDist(len(packed), procs, vw)
	if err != nil {
		return err
	}
	locals, fLocals, mLocals := dist.Scatter(l, global), dist.Scatter(l, field), dist.Scatter(l, gmask)
	opt := row.opt
	opt.VectorW = vw
	calls := 1
	if row.warm {
		opt.Plans = NewPlanCache()
		calls = 2
	}
	cfg := sim.Config{Procs: procs, Params: sim.CM5Params(), Sink: trace.NewRetainSink(procs)}
	if row.faults {
		f := costFaults
		cfg.Faults = &f
	}
	m := sim.MustNew(cfg)
	got := make([][]int, procs)
	err = m.Run(func(p *sim.Proc) {
		r := p.Rank()
		v := make([]int, vec.LocalLen(r))
		dist.ScatterVector(vec, r, packed, v)
		for range calls {
			if row.unpack {
				res, err := Unpack(p, l, v, len(packed), mLocals[r], fLocals[r], opt)
				if err != nil {
					panic(err)
				}
				got[r] = res.A
			} else {
				res, err := Pack(p, l, locals[r], mLocals[r], opt)
				if err != nil {
					panic(err)
				}
				got[r] = res.V
			}
		}
	})
	if err != nil {
		return err
	}
	if row.unpack {
		if a := dist.Gather(l, got); !slices.Equal(a, seq.Unpack(packed, gmask, field)) {
			return fmt.Errorf("UNPACK gave %v, internal/seq %v", a, seq.Unpack(packed, gmask, field))
		}
	} else {
		v := make([]int, len(packed))
		for r := range got {
			dist.GatherVector(vec, r, got[r], v)
		}
		if !slices.Equal(v, packed) {
			return fmt.Errorf("PACK gave %v, internal/seq %v", v, packed)
		}
	}
	bits := math.Float64bits
	for _, s := range m.Stats() {
		fmt.Fprintf(h, "rank %d clock %x comp %x comm %x ops %d msgs %d words %d faults %+v\n",
			s.Rank, bits(s.Clock), bits(s.Comp), bits(s.Comm), s.Ops, s.MsgsSent, s.WordsSent, s.Faults)
		for _, name := range slices.Sorted(maps.Keys(s.Phases)) {
			ph := s.Phases[name]
			fmt.Fprintf(h, "phase %q comp %x comm %x\n", name, bits(ph.Comp), bits(ph.Comm))
		}
	}
	for r, evs := range cfg.Sink.(*trace.RetainSink).Events() {
		for _, e := range evs {
			fmt.Fprintf(h, "ev %d %v peer %d tag %d words %d ops %d time %x dur %x phase %q msg %x\n",
				r, e.Kind, e.Peer, e.Tag, e.Words, e.Ops, bits(e.Time), bits(e.Dur), e.Phase, e.MsgID)
		}
	}
	return nil
}

// TestCostDigestsMatchRecorded checks every costRows digest. A
// mismatch prints the new digest: the change moved a charge, a message
// or a word count somewhere in that row's grid.
func TestCostDigestsMatchRecorded(t *testing.T) {
	for _, row := range costRows {
		t.Run(row.name, func(t *testing.T) {
			h := fnv.New64a()
			costDigestGrid(t, row, h)
			if got := h.Sum64(); got != row.digest {
				t.Errorf("digest %#016x, recorded %#016x", got, row.digest)
			}
		})
	}
}
