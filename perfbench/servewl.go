package main

// The serve workload: serve.Server on the real backend with one worker
// running P=2 jobs, driven open loop by the benchmark's own seeded
// Poisson generator at one fixed absolute rate. Each request's latency
// runs from its scheduled due time to the return of Wait, so a stall
// also charges the requests queued behind it.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	pu "packunpack"
	"packunpack/internal/serve"
)

// serveClass is one request class: a job kind under one scheme on one
// layout, with masks of one density.
type serveClass struct {
	name    string
	weight  int // requests of this class in every schedule block
	dims    []pu.Dim
	kind    serve.JobKind
	scheme  pu.Scheme
	density float64
}

// mixClasses is the stock serving mix of internal/serve/loadgen
// (DefaultMix): its eight classes with their weights, kinds, schemes
// and mask densities. Only the layouts differ: every class runs on P=2
// (procs), and DefaultMix's small, medium and large arrays
// (2^8, 2^12, 2^15 elements) become 2^k, 2^(k+1) and 2^(k+2), keeping
// their order, block sizes and 1-D/2-D shapes.
func mixClasses(k int) []serveClass {
	small := []pu.Dim{{N: 1 << k, P: 2, W: 4}}
	medium := []pu.Dim{{N: 1 << (k + 1), P: 2, W: 8}}
	r := (k + 1) / 2
	medium2D := []pu.Dim{{N: 1 << r, P: 2, W: 4}, {N: 1 << (k + 1 - r), P: 1, W: 4}}
	large := []pu.Dim{{N: 1 << (k + 2), P: 2, W: 16}}
	return []serveClass{
		{"s-pack-sss", 4, small, serve.JobPack, pu.SSS, 0.5},
		{"s-pack-cms", 4, small, serve.JobPack, pu.CMS, 0.9},
		{"s-unpack-css", 3, small, serve.JobUnpack, pu.CSS, 0.1},
		{"m-pack-css", 2, medium, serve.JobPack, pu.CSS, 0.5},
		{"m-unpack-css", 2, medium, serve.JobUnpack, pu.CSS, 0.5},
		{"m-pack-2d", 2, medium2D, serve.JobPack, pu.CMS, 0.25},
		{"l-pack-cms", 1, large, serve.JobPack, pu.CMS, 0.25},
		{"l-unpack-sss", 1, large, serve.JobUnpack, pu.SSS, 0.25},
	}
}

// serveSize fixes the traffic: rate, pools and classes. None of it is
// derived from measured speed.
type serveSize struct {
	Rate          float64 // requests per second, Poisson
	MasksPerClass int     // repeated masks per class (plan hits)
	FreshEvery    int     // one request in FreshEvery carries a never-seen mask (a miss)
	WarmPasses    int     // closed-loop set-up passes over the repeated masks: the first compiles, the rest hit
	Classes       []serveClass
}

var serveSizes = map[string]serveSize{
	"full": {Rate: 50, MasksPerClass: 4, FreshEvery: 12, WarmPasses: 16, Classes: mixClasses(14)},
	"tiny": {Rate: 150, MasksPerClass: 1, FreshEvery: 4, WarmPasses: 1, Classes: mixClasses(8)},
}

type request struct {
	at    time.Duration // due time from the start of the session
	class int
	mask  int // index into the class's pool, or -1 for this request's fresh mask
	fresh []bool
}

type classPool struct {
	serveClass
	layout *pu.Layout
	data   []int
	vector []int    // UNPACK input vector: class-size, so it covers any mask
	masks  [][]bool // repeated masks
	refs   [][]int  // reference output of each repeated mask
}

// serveInputs holds the pools, a schedule and every reference output.
type serveInputs struct {
	sz      serveSize
	classes []*classPool
	sched   []*request
	warm    []*request         // one request per repeated mask
	fresh   map[*request][]int // reference output of each fresh request
}

// tenant is the plan-cache domain of a class: as in loadgen, every
// class is its own tenant.
func (c *classPool) tenant() string { return c.name }

func (in *serveInputs) maskOf(q *request) []bool {
	if q.mask < 0 {
		return q.fresh
	}
	return in.classes[q.class].masks[q.mask]
}

func (in *serveInputs) job(q *request) *serve.Job {
	c := in.classes[q.class]
	j := &serve.Job{Tenant: c.tenant(), Kind: c.kind, Layout: c.layout,
		Global: c.data, Mask: in.maskOf(q), Scheme: c.scheme}
	if c.kind == serve.JobUnpack {
		j.Vector = c.vector
	}
	return j
}

// seqAnswer is the internal/seq answer of class c under mask m.
func (c *classPool) seqAnswer(m []bool) []int {
	if c.kind == serve.JobPack {
		return pu.SeqPack(c.data, m)
	}
	return pu.SeqUnpack(c.vector, m, c.data)
}

// reference is the internal/seq answer of a request, computed in
// set-up.
func (in *serveInputs) reference(q *request) []int {
	if q.mask < 0 {
		return in.fresh[q]
	}
	return in.classes[q.class].refs[q.mask]
}

func (in *serveInputs) check(q *request, resp *serve.Response) error {
	c := in.classes[q.class]
	got := resp.Vector
	if c.kind == serve.JobUnpack {
		got = resp.Array
	}
	if !slices.Equal(got, in.reference(q)) {
		return fmt.Errorf("%s job differs from internal/seq", c.name)
	}
	return nil
}

func makeServeInputs(seed uint64, sz serveSize, window time.Duration) *serveInputs {
	in := &serveInputs{sz: sz, fresh: map[*request][]int{}}
	for ci, c := range sz.Classes {
		l := pu.MustLayout(c.dims...)
		n := l.GlobalSize()
		cp := &classPool{serveClass: c, layout: l,
			data:   valuesArray(newRNG(seed, uint64(200+ci)), n, 1),
			vector: valuesArray(newRNG(seed, uint64(300+ci)), n, -1)}
		for i := 0; i < sz.MasksPerClass; i++ {
			m := randomMask(newRNG(seed, uint64(10000+ci*100+i)), l, c.density)
			cp.masks = append(cp.masks, m)
			cp.refs = append(cp.refs, cp.seqAnswer(m))
			in.warm = append(in.warm, &request{class: ci, mask: i})
		}
		in.classes = append(in.classes, cp)
	}
	// The schedule is built in blocks holding every class weight-many
	// times, shuffled, so the class mix and the fresh share are exact in
	// every block and the latency distribution does not depend on how a
	// seed happens to split the mix.
	r := newRNG(seed, 3)
	var block []int
	for ci, c := range sz.Classes {
		for i := 0; i < c.weight; i++ {
			block = append(block, ci)
		}
	}
	at := time.Duration(0)
	for b := 0; ; b++ {
		for j, idx := range perm(r, len(block)) {
			at += time.Duration(-math.Log(1-r.float()) / sz.Rate * float64(time.Second))
			if at >= window {
				return in
			}
			q := &request{at: at, class: block[idx], mask: r.intn(sz.MasksPerClass)}
			if n := b*len(block) + j; n%sz.FreshEvery == 0 {
				c := in.classes[q.class]
				q.mask = -1
				q.fresh = randomMask(newRNG(seed, uint64(1<<32+n)), c.layout, c.density)
				in.fresh[q] = c.seqAnswer(q.fresh)
			}
			in.sched = append(in.sched, q)
		}
	}
}

func (in *serveInputs) workingSet() int64 {
	var ws int64
	for _, c := range in.classes {
		n := int64(len(c.data))
		ws += 16 * n
		for i, m := range c.masks {
			ws += int64(len(m)) + 8*int64(len(c.refs[i]))
		}
	}
	for q, r := range in.fresh {
		ws += int64(len(q.fresh)) + 8*int64(len(r))
	}
	return ws
}

type serveState struct {
	in  *serveInputs
	srv *serve.Server
}

// The service runs one worker. Its admission queue holds more requests
// than a whole pass submits, so a slow host shows up as latency, never
// as a refusal that would fail the run.
const (
	serveWorkers = 1
	serveQueue   = 4096
)

func newServer() (*serve.Server, error) {
	return serve.New(serve.Config{Workers: serveWorkers, Queue: serveQueue, Backend: pu.BackendReal, Params: pu.CM5Params()})
}

// setUpServe builds inputs, references and the server, and warms it up
// with verified closed-loop jobs: every repeated mask compiles its plan
// on the first pass and hits on the others.
func setUpServe(seed uint64, sz serveSize, window time.Duration) (*serveState, error) {
	st := &serveState{in: makeServeInputs(seed, sz, window)}
	return st, st.rebuild()
}

// rebuild replaces the server with a fresh one and warms it up.
func (st *serveState) rebuild() error {
	if st.srv != nil {
		st.srv.Close()
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	st.srv = srv
	for pass := 0; pass < st.in.sz.WarmPasses; pass++ {
		for _, q := range st.in.warm {
			fut, err := srv.Submit(st.in.job(q))
			if err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
			resp, err := fut.Wait()
			if err == nil {
				err = st.in.check(q, resp)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// session is what one open-loop pass measured, per request in
// schedule order (failed requests keep zero entries and ok=false).
type session struct {
	ok                    []bool
	lat, queue, service   []float64 // ms
	submit, wake, late    []float64 // µs, µs, ms
	wall                  time.Duration
	planBefore, planAfter pu.PlanCacheStats
}

// spans lays each successful request out on the session clock:
// request ⊃ late, queue, service, wake, in that order.
func (s *session) spans(sched []*request) []spanRecord {
	var out []spanRecord
	for i, q := range sched {
		if !s.ok[i] {
			continue
		}
		t := us(int64(q.at))
		out = append(out, spanRecord{Op: i, Rank: -1, Name: "request", Start: t, End: t + 1e3*s.lat[i]})
		for _, part := range []struct {
			name string
			d    float64
		}{{"gen.late", 1e3 * s.late[i]}, {"serve.queue", 1e3 * s.queue[i]}, {"serve.service", 1e3 * s.service[i]}, {"serve.wake", s.wake[i]}} {
			out = append(out, spanRecord{Op: i, Rank: -1, Name: part.name, Start: t, End: t + part.d, Parent: "request"})
			t += part.d
		}
	}
	return out
}

func (s *session) okOnly(xs []float64) []float64 {
	var out []float64
	for i, x := range xs {
		if s.ok[i] {
			out = append(out, x)
		}
	}
	return out
}

func (st *serveState) planStats() pu.PlanCacheStats {
	var t pu.PlanCacheStats
	for _, c := range st.in.classes {
		s := st.srv.TenantPlanStats(c.tenant())
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Plans += s.Plans
	}
	return t
}

// openLoop submits the schedule on time, whatever the server's state,
// and waits for every response. A request is due offset before its
// time in the schedule, so a later slice of the schedule can run as a
// pass of its own. A refusal or a wrong answer fails the request.
//
// The generator waits for a due time by yielding in a loop, not by
// sleeping: a sleeping generator woke 1–3 ms late on the tuning host.
// Yielding leaves the thread to the server and its waiters whenever
// they can run, and keeps the CPU from going idle between requests.
func (st *serveState) openLoop(sched []*request, offset time.Duration, t *tally) *session {
	n := len(sched)
	s := &session{ok: make([]bool, n), lat: make([]float64, n), queue: make([]float64, n), service: make([]float64, n),
		submit: make([]float64, n), wake: make([]float64, n), late: make([]float64, n)}
	errs := make([]error, n)
	s.planBefore = st.planStats()
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range sched {
		due := start.Add(q.at - offset)
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		job := st.in.job(q)
		ts := time.Now()
		fut, err := st.srv.Submit(job)
		tr := time.Now()
		s.late[i] = ms(ts.Sub(due))
		s.submit[i] = us(int64(tr.Sub(ts)))
		if err != nil {
			errs[i] = err
			continue
		}
		corrupt := t.attempted+i == t.corruptAt
		wg.Add(1)
		go func(i int, q *request) {
			defer wg.Done()
			resp, err := fut.Wait()
			done := time.Now()
			if err != nil {
				errs[i] = err
				return
			}
			s.lat[i] = ms(done.Sub(due))
			s.queue[i] = ms(resp.Queue)
			s.service[i] = ms(resp.Service)
			s.wake[i] = us(int64(done.Sub(ts) - resp.Queue - resp.Service))
			if corrupt && len(resp.Vector)+len(resp.Array) > 0 {
				if len(resp.Vector) > 0 {
					resp.Vector[0] ^= 1
				} else {
					resp.Array[0] ^= 1
				}
			}
			errs[i] = st.in.check(q, resp)
		}(i, q)
	}
	wg.Wait()
	s.wall = time.Since(start)
	s.planAfter = st.planStats()
	for i := range sched {
		s.ok[i] = t.record(errs[i])
	}
	return s
}

func runServe(cfg runConfig) (*report, error) {
	sz := serveSizes[cfg.size]
	rep := newReport()
	window := cfg.window()
	if cfg.trace {
		window /= 2
	}
	var st *serveState
	err := rep.setUpRepeatedly(func() error {
		var err error
		st, err = setUpServe(cfg.seed, sz, window)
		return err
	}, func() { st.srv.Close(); st = nil })
	if err != nil {
		return nil, err
	}
	defer func() { st.srv.Close() }() // a traced run replaces the server
	rep.prov.WorkingSetBytes = st.in.workingSet()
	classes := map[string]string{}
	for _, c := range st.in.classes {
		classes[c.name] = fmt.Sprintf("weight %d, %s %v, %s, density %.2f, %d elements",
			c.weight, c.kind, c.scheme, pu.FormatDist(c.layout), c.density, c.layout.GlobalSize())
	}
	rep.prov.Params = map[string]any{"rate_per_s": sz.Rate, "arrivals": "Poisson, open loop", "workers": serveWorkers, "procs": procs,
		"tenants": "one per class", "masks_per_class": sz.MasksPerClass, "fresh_mask_share": 1 / float64(sz.FreshEvery),
		"classes": classes, "requests": len(st.in.sched), "queue": serveQueue}

	if !cfg.trace {
		// The schedule runs in slices of calibEvery, each a pass of its
		// own, with a calibration sample between passes: the kernel
		// never runs beside a request.
		norm := newHostNorm()
		sched := st.in.sched
		for from := time.Duration(0); len(sched) > 0; from += calibEvery {
			n := 0
			for n < len(sched) && sched[n].at < from+calibEvery {
				n++
			}
			s := st.openLoop(sched[:n], from, &rep.tally)
			norm.addSegment(s.okOnly(s.lat))
			norm.take()
			sched = sched[n:]
		}
		rep.endToEnd(norm)
		return rep, nil
	}

	// Traced run: the schedule runs twice, the second time on a fresh,
	// equally warmed server as the traced pass, whose requests are kept
	// as spans; the service is then decomposed by replaying the traced
	// pass's jobs directly on a traced machine.
	s0 := st.openLoop(st.in.sched, 0, &rep.tally)
	if err := st.rebuild(); err != nil {
		return nil, err
	}
	a := sampleProc()
	s1 := st.openLoop(st.in.sched, 0, &rep.tally)
	rep.procMetrics(a, sampleProc(), len(st.in.sched))
	rep.serveMetrics(s1)
	rep.planStats(s1.planBefore, s1.planAfter)
	rep.spans = append(rep.spans, s1.spans(st.in.sched)...)

	rp, err := st.replay(&rep.tally)
	if err != nil {
		return nil, err
	}
	rep.source = srcReplay
	replayUS := rep.layerMetrics(&rp.sum)
	rep.put("dist.scatter_us", metric{mean(rp.scatter), "us"})
	rep.put("dist.gather_us", metric{mean(rp.gather), "us"})
	rep.put("pack.speedup_vs_seq", metric{mean(rp.seq) / mean(rp.run), "x"})
	rep.source = srcLadder
	rep.put("ranking.rank_us", metric{mean(rp.rank), "us"})
	rep.put("pack.compile_ms", metric{mean(rp.compile) / 1e3, "ms"})
	rep.spans = append(rep.spans, rp.spans...)

	// Attribution of the traced pass's mean request: generator lateness,
	// queueing and wake-up are measured on the request itself; the
	// service is split by the replay's scatter, gather and machine-run
	// layers; whatever the replay does not explain stays unattributed.
	rep.source = srcPath
	lat := s1.okOnly(s1.lat)
	attributed := mean(s1.okOnly(s1.late)) + mean(s1.okOnly(s1.queue)) + mean(s1.okOnly(s1.wake))/1e3 +
		(mean(rp.scatter)+mean(rp.gather)+replayUS)/1e3
	rep.attribution(mean(lat), attributed, s0.okOnly(s0.lat), lat)

	real, err := newRealMachine()
	if err != nil {
		return nil, err
	}
	if err := rep.probeTransportAndSim(real); err != nil {
		return nil, err
	}
	if err := rep.probeReproduce(cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveMetrics records the serve.* and gen.* figures of a session.
func (r *report) serveMetrics(s *session) {
	r.put("serve.submit_us", metric{quantile(s.okOnly(s.submit), 0.5), "us"})
	r.put("serve.wake_us", metric{quantile(s.okOnly(s.wake), 0.5), "us"})
	q, sv := s.okOnly(s.queue), s.okOnly(s.service)
	r.put("serve.queue_ms_p50", metric{quantile(q, 0.5), "ms"})
	r.put("serve.queue_ms_p90", metric{quantile(q, 0.9), "ms"})
	r.put("serve.service_ms_p50", metric{quantile(sv, 0.5), "ms"})
	r.put("serve.service_ms_p90", metric{quantile(sv, 0.9), "ms"})
	total := 0.0
	for _, x := range sv {
		total += x
	}
	r.put("serve.util", metric{total / (ms(s.wall) * serveWorkers), "frac"})
	r.put("gen.late_ms_p99", metric{quantile(s.late, 0.99), "ms"})
}

// probeServe runs a short serve session for the serve.* and gen.*
// figures of a workload that does not serve.
func (r *report) probeServe(seed uint64, size string) error {
	r.source = "probe: serve session"
	sz := serveSizes[size]
	st, err := setUpServe(seed, sz, time.Second)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer st.srv.Close()
	r.serveMetrics(st.openLoop(st.in.sched, 0, &r.tally))
	return nil
}

// srcReplay is the source of the figures of the replay below.
const srcReplay = "replay"

// replayResult is the direct, traced re-execution of a session's jobs.
type replayResult struct {
	sum                  breakdownSum
	scatter, gather, run []float64 // µs per job
	seq, rank, compile   []float64 // µs per job
	ops                  []tracedOp
	spans                []spanRecord
}

// replay re-executes the schedule's jobs the way the server's runJob
// does (scatter, one Machine.Run, gather) on a traced real machine,
// with per-class (per-tenant) plan caches warmed by the same warm-up
// jobs, so hits and misses fall where they fell in the service.
func (st *serveState) replay(t *tally) (*replayResult, error) {
	m, err := newRealMachine()
	if err != nil {
		return nil, err
	}
	caches := make([]*pu.PlanCache, len(st.in.classes))
	for i := range caches {
		caches[i] = pu.NewPlanCache()
	}
	rr := &replayResult{}
	for _, q := range st.in.warm {
		if _, err := replayJob(m, st.in, q, caches[q.class], nil); err != nil {
			return nil, err
		}
	}
	tr := newTracer(2)
	limit := min(len(st.in.sched), 400)
	for _, q := range st.in.sched[:limit] {
		j, err := replayJob(m, st.in, q, caches[q.class], tr)
		if !t.record(err) {
			continue
		}
		rr.sum.add(attribute(tr.ops[len(tr.ops)-1]))
		rr.sum.addStats(m.Stats())
		rr.scatter = append(rr.scatter, j.scatter)
		rr.gather = append(rr.gather, j.gather)
		rr.run = append(rr.run, j.run)
		rr.seq = append(rr.seq, j.seq)
	}
	rr.ops = tr.ops
	for _, op := range tr.ops {
		rr.spans = append(rr.spans, op.spans("replay.")...)
	}
	// Rank and CompilePlan alone, once per class on a repeated mask.
	for ci, c := range st.in.classes {
		mloc := pu.Scatter(c.layout, c.masks[0])
		v, err := perRankUS(m, func(ep pu.Endpoint) error {
			_, err := pu.Rank(ep, c.layout, mloc[ep.Rank()], false)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("class %d rank probe: %w", ci, err)
		}
		rr.rank = append(rr.rank, v)
		v, err = perRankUS(m, func(ep pu.Endpoint) error {
			_, err := pu.CompilePlan(ep, c.layout, mloc[ep.Rank()], pu.Options{Scheme: c.scheme})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("class %d compile probe: %w", ci, err)
		}
		rr.compile = append(rr.compile, v)
	}
	return rr, nil
}

type jobTimes struct{ scatter, gather, run, seq float64 }

// replayJob mirrors the server's job execution with the public API and
// checks the result against internal/seq.
func replayJob(m pu.ParallelMachine, in *serveInputs, q *request, cache *pu.PlanCache, tr *tracer) (jobTimes, error) {
	var jt jobTimes
	c := in.classes[q.class]
	l := c.layout
	procs := l.Procs()
	mask := in.maskOf(q)
	t0 := time.Now()
	locals := pu.Scatter(l, c.data)
	maskLocals := pu.Scatter(l, mask)
	jt.scatter = us(int64(time.Since(t0)))
	opt := pu.Options{Scheme: c.scheme, Plans: cache}
	if c.kind == serve.JobUnpack && opt.Scheme == pu.CMS {
		opt.Scheme = pu.CSS
	}
	packs := make([]*pu.PackResult[int], procs)
	outs := make([][]int, procs)
	vdist, err := pu.NewVectorDist(len(c.vector), procs, 0)
	if err != nil {
		return jt, err
	}
	body := func(ep0 pu.Endpoint) {
		ep, log := tr.wrap(ep0)
		tr.mark(log, evBodyStart, "")
		r := ep.Rank()
		if c.kind == serve.JobPack {
			tr.mark(log, evCallStart, "pack")
			res, err := pu.Pack(ep, l, locals[r], maskLocals[r], opt)
			tr.mark(log, evCallEnd, "pack")
			if err != nil {
				panic(err)
			}
			packs[r] = res
		} else {
			lv := make([]int, vdist.LocalLen(r))
			for i := range lv {
				lv[i] = c.vector[vdist.ToGlobal(r, i)]
			}
			tr.mark(log, evCallStart, "unpack")
			res, err := pu.Unpack(ep, l, lv, len(c.vector), maskLocals[r], locals[r], opt)
			tr.mark(log, evCallEnd, "unpack")
			if err != nil {
				panic(err)
			}
			outs[r] = res.A
		}
		tr.mark(log, evBodyEnd, "")
	}
	if tr != nil {
		tr.begin()
	}
	t1 := time.Now()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	err = m.Run(body)
	if tr != nil {
		tr.finish(start, tr.now(), true, l.LocalSize())
	}
	t2 := time.Now()
	jt.run = us(int64(t2.Sub(t1)))
	if err != nil {
		return jt, err
	}
	var got []int
	if c.kind == serve.JobPack {
		got = make([]int, packs[0].Ranking.Size)
		for rank, r := range packs {
			for i, v := range r.V {
				got[r.Vec.ToGlobal(rank, i)] = v
			}
		}
	} else {
		got = pu.Gather(l, outs)
	}
	jt.gather = us(int64(time.Since(t2)))
	if !slices.Equal(got, in.reference(q)) {
		return jt, fmt.Errorf("replayed %s job differs from internal/seq", c.name)
	}
	t3 := time.Now()
	if c.kind == serve.JobPack {
		_ = pu.SeqPack(c.data, mask)
	} else {
		_ = pu.SeqUnpack(c.vector, mask, c.data)
	}
	jt.seq = us(int64(time.Since(t3)))
	return jt, nil
}
