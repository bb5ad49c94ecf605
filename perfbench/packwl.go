package main

// The pack-cold and pack-warm workloads: one op is a PACK (CMS) and then
// an UNPACK (CSS) of the same mask, as one SPMD Machine.Run on the real
// backend. pack-cold has no plan cache, so ranking, the PRS, composition
// and the all-to-all run on every call; pack-warm installs a PlanCache
// whose small working set of masks is compiled during set-up, so every
// timed call is a hit (fingerprint, two-word agreement PRS, bulk copy).

import (
	"fmt"
	"time"

	pu "packunpack"
)

// packSize fixes every size of the pack workloads. Nothing here is
// derived from measured speed. The mask pools hold the same number of
// masks at each of the paper's five random-mask densities.
type packSize struct {
	N, W      int
	ColdSeeds int // masks per density the cold op stream cycles through
	WarmSeeds int // masks per density in pack-warm's compiled working set
	Warmup    int // verified untimed round trips per set-up
}

var packSizes = map[string]packSize{
	"full": {N: 1 << 20, W: 64, ColdSeeds: 2, WarmSeeds: 1, Warmup: 10},
	"tiny": {N: 1 << 12, W: 16, ColdSeeds: 1, WarmSeeds: 1, Warmup: 1},
}

// maskCase is one mask of the pool with its sequential references.
type maskCase struct {
	density float64
	loc     [][]bool // per-rank local portions
	refPack []int    // seq.Pack(A, M)
}

type packInputs struct {
	layout     *pu.Layout
	aLoc, fLoc [][]int
	a, f       []int
	masks      []*maskCase
}

// makePackInputs builds the arrays and perDensity masks at each of the
// paper's densities, density fastest, so the pool's first
// len(paperDensities) masks cover every density once.
func makePackInputs(seed uint64, sz packSize, perDensity int) *packInputs {
	l := pu.MustLayout(pu.Dim{N: sz.N, P: procs, W: sz.W})
	in := &packInputs{layout: l}
	in.a = valuesArray(newRNG(seed, 1), sz.N, 1)
	in.f = valuesArray(newRNG(seed, 2), sz.N, -1)
	in.aLoc = pu.Scatter(l, in.a)
	in.fLoc = pu.Scatter(l, in.f)
	for k := 0; k < perDensity; k++ {
		for _, d := range paperDensities {
			g := randomMask(newRNG(seed, uint64(100+len(in.masks))), l, d)
			in.masks = append(in.masks, &maskCase{density: d, loc: pu.Scatter(l, g), refPack: pu.SeqPack(in.a, g)})
		}
	}
	return in
}

func (in *packInputs) workingSet() int64 {
	n := int64(len(in.a))
	ws := 4 * 8 * n // a, f and their local copies
	for _, mc := range in.masks {
		ws += n + 8*int64(len(mc.refPack))
	}
	return ws
}

// roundTrip runs PACK then UNPACK of one mask on a machine.
type roundTrip struct {
	m         pu.ParallelMachine
	in        *packInputs
	tr        *tracer // nil: untraced
	packOpt   pu.Options
	unpackOpt pu.Options
	packs     []*pu.PackResult[int]
	unpacks   []*pu.UnpackResult[int]
}

func newRoundTrip(m pu.ParallelMachine, in *packInputs, cache *pu.PlanCache) *roundTrip {
	return &roundTrip{
		m: m, in: in,
		packOpt:   pu.Options{Scheme: pu.CMS, Plans: cache},
		unpackOpt: pu.Options{Scheme: pu.CSS, Plans: cache},
		packs:     make([]*pu.PackResult[int], m.Procs()),
		unpacks:   make([]*pu.UnpackResult[int], m.Procs()),
	}
}

// run executes one round trip and returns its call→return wall time.
func (rt *roundTrip) run(mc *maskCase) (time.Duration, error) {
	l := rt.in.layout
	body := func(ep0 pu.Endpoint) {
		ep, log := rt.tr.wrap(ep0)
		rt.tr.mark(log, evBodyStart, "")
		r := ep.Rank()
		rt.tr.mark(log, evCallStart, "pack")
		pr, err := pu.Pack(ep, l, rt.in.aLoc[r], mc.loc[r], rt.packOpt)
		rt.tr.mark(log, evCallEnd, "pack")
		if err != nil {
			panic(err)
		}
		rt.tr.mark(log, evCallStart, "unpack")
		ur, err := pu.Unpack(ep, l, pr.V, pr.Ranking.Size, mc.loc[r], rt.in.fLoc[r], rt.unpackOpt)
		rt.tr.mark(log, evCallEnd, "unpack")
		if err != nil {
			panic(err)
		}
		rt.packs[r], rt.unpacks[r] = pr, ur
		rt.tr.mark(log, evBodyEnd, "")
	}
	clear(rt.packs)
	clear(rt.unpacks)
	if rt.tr == nil {
		t0 := time.Now()
		err := rt.m.Run(body)
		return time.Since(t0), err
	}
	rt.tr.begin()
	start := rt.tr.now()
	err := rt.m.Run(body)
	end := rt.tr.now()
	rt.tr.finish(start, end, rt.packOpt.Plans != nil, l.LocalSize())
	return time.Duration(end - start), err
}

// verify checks the last round trip against the sequential reference:
// PACK equals seq.Pack, and UNPACK of that vector restores A at every
// selected position and the field elsewhere.
func (rt *roundTrip) verify(mc *maskCase) error {
	got := 0
	for rank, pr := range rt.packs {
		if pr == nil {
			return fmt.Errorf("rank %d produced no PACK result", rank)
		}
		for i, v := range pr.V {
			g := pr.Vec.ToGlobal(rank, i)
			if g >= len(mc.refPack) || mc.refPack[g] != v {
				return fmt.Errorf("PACK element %d on rank %d differs from seq.Pack", i, rank)
			}
		}
		got += len(pr.V)
	}
	if got != len(mc.refPack) {
		return fmt.Errorf("PACK returned %d elements, seq.Pack %d", got, len(mc.refPack))
	}
	for rank, ur := range rt.unpacks {
		a, f, m := rt.in.aLoc[rank], rt.in.fLoc[rank], mc.loc[rank]
		if ur == nil || len(ur.A) != len(m) {
			return fmt.Errorf("rank %d UNPACK result has the wrong shape", rank)
		}
		for i, v := range ur.A {
			if (m[i] && v != a[i]) || (!m[i] && v != f[i]) {
				return fmt.Errorf("UNPACK(PACK(A)) element %d on rank %d is not restored", i, rank)
			}
		}
	}
	return nil
}

// corrupt flips one output element; the self-test uses it to prove that
// verification catches a wrong byte.
func (rt *roundTrip) corrupt() {
	for _, pr := range rt.packs {
		if pr != nil && len(pr.V) > 0 {
			pr.V[0] ^= 1
			return
		}
	}
}

// maskOrder yields the pool index of op i: the pool is walked in a
// fresh seeded permutation per cycle, never the same mask twice in a
// row, and a replay of the same seed sees the same sequence.
type maskOrder struct {
	seed uint64
	pool int
	seq  []int
}

func (o *maskOrder) at(i int) int {
	for len(o.seq) <= i {
		p := perm(newRNG(o.seed, uint64(1000+len(o.seq)/o.pool)), o.pool)
		if n := len(o.seq); n > 0 && o.pool > 1 && p[0] == o.seq[n-1] {
			p[0], p[1] = p[1], p[0]
		}
		o.seq = append(o.seq, p...)
	}
	return o.seq[i]
}

type packState struct {
	in    *packInputs
	m     pu.ParallelMachine
	cache *pu.PlanCache
	rt    *roundTrip
	order *maskOrder
}

// setUpPack builds one complete pack workload: inputs, references, the
// machine, and (warm) the compiled working set; then verified warm-up.
func setUpPack(seed uint64, sz packSize, warm bool) (*packState, error) {
	perDensity := sz.ColdSeeds
	if warm {
		perDensity = sz.WarmSeeds
	}
	in := makePackInputs(seed, sz, perDensity)
	pool := len(in.masks)
	st := &packState{in: in, order: &maskOrder{seed: seed, pool: pool}}
	m, err := newRealMachine()
	if err != nil {
		return nil, err
	}
	st.m = m
	if warm {
		st.cache = pu.NewPlanCache()
	}
	st.rt = newRoundTrip(m, st.in, st.cache)
	warmups := sz.Warmup
	if warm {
		warmups = 2 * pool // compile every mask, then one hit each
	}
	for i := 0; i < warmups; i++ {
		mc := st.in.masks[i%pool]
		if _, err := st.rt.run(mc); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := st.rt.verify(mc); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// opLoop runs verified ops from the start of the op stream until the
// window closes and returns their latencies in ms; failures are counted,
// not timed. Given a hostNorm, each untraced latency is also added to
// it, which samples the calibration kernel between ops. Given a
// tracer, every op runs twice in a row, untraced (lat) and traced
// (traced), the traced one first on every other op, so a drift in host
// speed and the cache warmth the first run leaves behind land on both
// sides of the tracing-overhead comparison alike; sum collects each
// traced op's attribution and the machine's message counters.
func (st *packState) opLoop(window time.Duration, t *tally, tr *tracer, sum *breakdownSum, norm *hostNorm) (lat, traced []float64) {
	modes := []*tracer{nil}
	deadline := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		mc := st.in.masks[st.order.at(i)]
		if tr != nil {
			modes = []*tracer{nil, tr}
			if i%2 == 1 {
				modes = []*tracer{tr, nil}
			}
		}
		for _, mode := range modes {
			st.rt.tr = mode
			d, err := st.rt.run(mc)
			if err == nil && t.shouldCorrupt() {
				st.rt.corrupt()
			}
			if err == nil {
				err = st.rt.verify(mc)
			}
			if !t.record(err) {
				continue
			}
			if mode == nil {
				lat = append(lat, ms(d))
				if norm != nil {
					norm.add(ms(d))
				}
				continue
			}
			traced = append(traced, ms(d))
			sum.add(attribute(tr.ops[len(tr.ops)-1]))
			sum.addStats(st.m.Stats())
		}
	}
	st.rt.tr = nil
	return lat, traced
}

func runPack(cfg runConfig, warm bool) (*report, error) {
	sz := packSizes[cfg.size]
	rep := newReport()
	var st *packState
	err := rep.setUpRepeatedly(func() error {
		var err error
		st, err = setUpPack(cfg.seed, sz, warm)
		return err
	}, func() { st = nil })
	if err != nil {
		return nil, err
	}
	rep.prov.WorkingSetBytes = st.in.workingSet()
	rep.prov.Params = map[string]any{"n": sz.N, "w": sz.W, "procs": procs, "mask_densities": paperDensities,
		"pool": len(st.in.masks), "plan_cache": warm, "ops": "PACK(CMS) then UNPACK(CSS), one Machine.Run"}

	window := cfg.window()
	if !cfg.trace {
		norm := newHostNorm()
		st.opLoop(window, &rep.tally, nil, nil, norm)
		rep.endToEnd(norm)
		return rep, nil
	}

	// Traced run: every op of the stream runs untraced and traced with
	// spans; then the probes.
	var before pu.PlanCacheStats
	if st.cache != nil {
		before = st.cache.Stats()
	}
	tr := newTracer(procs)
	var sum breakdownSum
	a := sampleProc()
	lat0, lat1 := st.opLoop(window, &rep.tally, tr, &sum, nil)
	rep.procMetrics(a, sampleProc(), len(lat0)+len(lat1))
	for _, op := range tr.ops {
		rep.spans = append(rep.spans, op.spans("")...)
	}
	opUS := sum.opUS / float64(max(sum.ops, 1))
	rep.attribution(opUS/1e3, rep.layerMetrics(&sum)/1e3, lat0, lat1)

	// The layer this workload bypasses is measured by a few round trips
	// of the other mode on the same masks.
	if warm {
		rep.planStats(before, st.cache.Stats())
		rep.source = "probe: cold round trips"
		probe := st.modeProbe(nil, &rep.tally)
		rep.put(bScan, metric{probe.mean(bScan), "us"})
		rep.put("ranking.scan_ns_per_elem", metric{1e3 * probe.buckets[bScan] / probe.scanElem, "ns/elem"})
	} else {
		rep.source = "probe: warm round trips"
		cache := pu.NewPlanCache()
		probe := st.modeProbe(cache, &rep.tally)
		rep.put(bFingerprint, metric{probe.mean(bFingerprint), "us"})
		rep.planStats(pu.PlanCacheStats{}, cache.Stats())
	}
	rep.source = srcLadder
	rep.put("pack.speedup_vs_seq", metric{probeSeq(st.in, 3) / (1e3 * quantile(lat0, 0.5)), "x"})
	return rep, probeLadder(rep, st.m, st.in, cfg.seed, cfg.size)
}

// modeProbe runs traced round trips of the mode the workload does not
// use: cold ones (cache nil) or warm ones on a fresh cache, whose first
// sighting of each mask compiles and is not folded in.
func (st *packState) modeProbe(cache *pu.PlanCache, t *tally) *breakdownSum {
	rt := newRoundTrip(st.m, st.in, cache)
	rt.tr = newTracer(procs)
	sum := &breakdownSum{}
	masks := st.in.masks[:len(paperDensities)]
	for round := 0; round < 4; round++ {
		for _, mc := range masks {
			_, err := rt.run(mc)
			if err == nil {
				err = rt.verify(mc)
			}
			if t.record(err) && (cache == nil || round > 0) {
				sum.add(attribute(rt.tr.ops[len(rt.tr.ops)-1]))
			}
		}
	}
	return sum
}
