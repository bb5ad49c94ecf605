package main

// Ladder probes: each layer timed alone, by calling its public entry
// point from outside on this workload's own inputs, plus the shared
// attribution and plan-cache figures of a traced replay.

import (
	"fmt"
	"time"

	pu "packunpack"
)

// perRankUS times fn inside one Machine.Run on every rank and returns
// the rank-mean in µs.
func perRankUS(m pu.ParallelMachine, fn func(ep pu.Endpoint) error) (float64, error) {
	d := make([]time.Duration, m.Procs())
	errs := make([]error, m.Procs())
	err := m.Run(func(ep pu.Endpoint) {
		t0 := time.Now()
		errs[ep.Rank()] = fn(ep)
		d[ep.Rank()] = time.Since(t0)
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := range d {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += us(int64(d[i]))
	}
	return total / float64(len(d)), nil
}

// probeEmptyRun is the median call→return of an empty-body Run.
func probeEmptyRun(m pu.ParallelMachine, k int) (float64, error) {
	xs := make([]float64, k)
	for i := range xs {
		t0 := time.Now()
		if err := m.Run(func(pu.Endpoint) {}); err != nil {
			return 0, err
		}
		xs[i] = us(int64(time.Since(t0)))
	}
	return quantile(xs, 0.5), nil
}

// probePingPong is the median per-round-trip time of a 2-rank ping-pong
// of one-word messages, k round trips per Run.
func probePingPong(m pu.ParallelMachine, k, runs int) (float64, error) {
	xs := make([]float64, runs)
	for r := range xs {
		t0 := time.Now()
		err := m.Run(func(ep pu.Endpoint) {
			for i := 0; i < k; i++ {
				if ep.Rank() == 0 {
					ep.Send(1, 7, i, 1)
					ep.Recv(1, 7)
				} else {
					ep.Recv(0, 7)
					ep.Send(0, 7, i, 1)
				}
			}
		})
		if err != nil {
			return 0, err
		}
		xs[r] = us(int64(time.Since(t0))) / float64(k)
	}
	return quantile(xs, 0.5), nil
}

// srcLadder is the source of the ladder probes: Rank, CompilePlan,
// Scatter/Gather, an empty Run, a ping-pong and seq, each called alone
// on the workload's own inputs or machine.
const srcLadder = "probe: ladder"

// probeLayers times Rank, CompilePlan, Scatter and Gather on the
// inputs of a pack-shaped problem, on machine m.
func (r *report) probeLayers(m pu.ParallelMachine, in *packInputs) error {
	r.source = srcLadder
	l := in.layout
	var rank, compile []float64
	for _, mc := range in.masks {
		v, err := perRankUS(m, func(ep pu.Endpoint) error {
			_, err := pu.Rank(ep, l, mc.loc[ep.Rank()], false)
			return err
		})
		if err != nil {
			return fmt.Errorf("rank probe: %w", err)
		}
		rank = append(rank, v)
		v, err = perRankUS(m, func(ep pu.Endpoint) error {
			_, err := pu.CompilePlan(ep, l, mc.loc[ep.Rank()], pu.Options{Scheme: pu.CMS})
			return err
		})
		if err != nil {
			return fmt.Errorf("compile probe: %w", err)
		}
		compile = append(compile, v/1e3)
	}
	r.put("ranking.rank_us", metric{quantile(rank, 0.5), "us"})
	r.put("pack.compile_ms", metric{quantile(compile, 0.5), "ms"})
	var sc, ga []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		locals := pu.Scatter(l, in.a)
		t1 := time.Now()
		back := pu.Gather(l, locals)
		t2 := time.Now()
		if len(back) != len(in.a) || back[len(back)-1] != in.a[len(in.a)-1] {
			return fmt.Errorf("scatter/gather probe did not round-trip")
		}
		sc = append(sc, us(int64(t1.Sub(t0))))
		ga = append(ga, us(int64(t2.Sub(t1))))
	}
	r.put("dist.scatter_us", metric{quantile(sc, 0.5), "us"})
	r.put("dist.gather_us", metric{quantile(ga, 0.5), "us"})
	return nil
}

// probeSeq is the median time of seq.Pack then seq.Unpack over the pool.
func probeSeq(in *packInputs, rounds int) float64 {
	g := make([][]bool, len(in.masks))
	for i, mc := range in.masks {
		g[i] = pu.Gather(in.layout, mc.loc)
	}
	var xs []float64
	for r := 0; r < rounds; r++ {
		for _, m := range g {
			t0 := time.Now()
			v := pu.SeqPack(in.a, m)
			_ = pu.SeqUnpack(v, m, in.f)
			xs = append(xs, us(int64(time.Since(t0))))
		}
	}
	return quantile(xs, 0.5)
}

// probeTransportAndSim fills the transport.run_us and sim.* probes.
func (r *report) probeTransportAndSim(real pu.ParallelMachine) error {
	r.source = srcLadder
	v, err := probeEmptyRun(real, 200)
	if err != nil {
		return err
	}
	r.put("transport.run_us", metric{v, "us"})
	sm, err := newCoopMachine()
	if err != nil {
		return err
	}
	if v, err = probeEmptyRun(sm, 200); err != nil {
		return err
	}
	r.put("sim.run_us", metric{v, "us"})
	if v, err = probePingPong(sm, 2000, 7); err != nil {
		return err
	}
	r.put("sim.pingpong_us", metric{v, "us"})
	return nil
}

// procs is the rank count of every machine the benchmark builds. Both
// ranks share the run's one thread (runOnOneCPU).
const procs = 2

func newRealMachine() (pu.ParallelMachine, error) {
	return pu.NewBackendMachine(pu.BackendReal, pu.Config{Procs: procs, Params: pu.CM5Params()})
}

func newCoopMachine() (pu.ParallelMachine, error) {
	return pu.NewBackendMachine(pu.BackendSim, pu.Config{Procs: procs, Params: pu.CM5Params(), Sched: pu.SchedCooperative})
}

// probeLadder runs every probe a pack workload does not cover on its
// op path: the transport and sim probes, the layer probes on the pool,
// and, because a traced run reports every per-layer metric, one
// reproduce round for sim.exp_ms.* and a short serve session for
// serve.* and gen.*.
func probeLadder(r *report, m pu.ParallelMachine, in *packInputs, seed uint64, size string) error {
	if err := r.probeTransportAndSim(m); err != nil {
		return err
	}
	if err := r.probeLayers(m, in); err != nil {
		return err
	}
	if err := r.probeReproduce(seed); err != nil {
		return err
	}
	return r.probeServe(seed, size)
}

// layerMetrics records the per-op layer figures of a traced pass and
// returns the µs per op its buckets attribute (the glue excluded).
func (r *report) layerMetrics(sum *breakdownSum) (attributedUS float64) {
	ops := float64(max(sum.ops, 1))
	for _, b := range opBuckets {
		if b != bGlue {
			r.put(b, metric{sum.mean(b), "us"})
			attributedUS += sum.mean(b)
		}
	}
	r.put("pack.pack_us", metric{sum.packUS / ops, "us"})
	r.put("pack.unpack_us", metric{sum.unpackUS / ops, "us"})
	r.put("ranking.scan_ns_per_elem", metric{1e3 * sum.buckets[bScan] / max(sum.scanElem, 1), "ns/elem"})
	r.put("transport.msgs_per_op", metric{float64(sum.msgs) / ops, "count"})
	r.put("transport.kb_per_op", metric{float64(sum.words) * 8 / 1024 / ops, "KB"})
	return attributedUS
}

// attribution records the traced op mean, the share of it no layer
// explains, and the tracing overhead: lat0/lat1 are the untraced and
// traced latencies of the same op stream.
func (r *report) attribution(opMS, attributedMS float64, lat0, lat1 []float64) {
	r.put("attrib.op_ms", metric{opMS, "ms"})
	r.put("attrib.unattributed_frac", metric{(opMS - attributedMS) / opMS, "frac"})
	p0 := quantile(lat0, 0.5)
	r.put("attrib.trace_overhead_frac", metric{(quantile(lat1, 0.5) - p0) / p0, "frac"})
}

// planStats records the plan-cache figures between two snapshots.
func (r *report) planStats(before, after pu.PlanCacheStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	r.put("pack.plan_hit_rate", metric{rate, "frac"})
	r.put("pack.plans_held", metric{float64(after.Plans), "count"})
}
