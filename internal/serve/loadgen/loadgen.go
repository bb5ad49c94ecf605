// Package loadgen is the open-loop traffic harness for internal/serve:
// a deterministic seeded arrival process (Poisson interarrivals drawn
// from splitmix64 — no time.Now anywhere in the decision path) over a
// mixed workload of PACK/UNPACK job classes.
//
// The harness runs on the library's two clocks (DESIGN.md §16):
//
//   - Run drives a discrete-event simulation of the service queue
//     (Workers parallel servers, a bounded FIFO of Queue slots,
//     admission rejection beyond that) in virtual microseconds. Each
//     class's service time is first measured as the warm (plan-cached)
//     virtual makespan of the real job through a real serve.Server on
//     the sim backend — byte-verified against internal/seq — so the
//     queueing model replays exactly what the service would charge.
//     The resulting latency histogram, quantiles, rejection count and
//     SumUS checksum are a pure function of (seed, config): the same
//     seed gives the identical arrival schedule and the identical
//     histogram, which is what makes a million-request soak gateable.
//
//   - Run can additionally execute every request for real
//     (Config.Execute): each arrival becomes a distinct job with its
//     own seeded payload, submitted through a shared serve.Server and
//     byte-compared against its own sequential reference. That is the
//     correctness-under-load soak; its wall-clock throughput is
//     reported but never gated.
package loadgen

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/metrics"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/serve"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// splitmix64 advances *x and returns the next value of the stream.
// The standard constants (Steele et al.); fully deterministic and
// cheap enough for two draws per simulated request.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a splitmix64 draw to (0,1); never returns 0, so -log is
// always finite.
func unit(x *uint64) float64 {
	return (float64(splitmix64(x)>>11) + 0.5) * (1.0 / (1 << 53))
}

// Class is one workload class of the mix: a fixed layout, operation,
// scheme and mask density. Payloads vary per request (seeded), the
// shape does not — so a class has one plan-cache fingerprint per rank
// and one warm virtual service time.
type Class struct {
	Name    string
	Weight  int // relative arrival probability
	Dims    []dist.Dim
	Kind    serve.JobKind
	Scheme  pack.Scheme
	Density float64 // mask density in [0,1]
	VectorW int
}

// DefaultMix is the harness's stock workload: small/medium/large
// PACK and UNPACK jobs across all three schemes and two machine
// sizes, weighted toward the small end like a serving workload.
func DefaultMix() []Class {
	return []Class{
		{Name: "s4-pack-sss", Weight: 4, Dims: []dist.Dim{{N: 256, P: 4, W: 4}}, Kind: serve.JobPack, Scheme: pack.SchemeSSS, Density: 0.5},
		{Name: "s4-pack-cms", Weight: 4, Dims: []dist.Dim{{N: 256, P: 4, W: 4}}, Kind: serve.JobPack, Scheme: pack.SchemeCMS, Density: 0.9},
		{Name: "s4-unpack-css", Weight: 3, Dims: []dist.Dim{{N: 256, P: 4, W: 4}}, Kind: serve.JobUnpack, Scheme: pack.SchemeCSS, Density: 0.1},
		{Name: "m8-pack-css", Weight: 2, Dims: []dist.Dim{{N: 4096, P: 8, W: 8}}, Kind: serve.JobPack, Scheme: pack.SchemeCSS, Density: 0.5},
		{Name: "m8-unpack-css", Weight: 2, Dims: []dist.Dim{{N: 4096, P: 8, W: 8}}, Kind: serve.JobUnpack, Scheme: pack.SchemeCSS, Density: 0.5},
		{Name: "m4-pack-2d", Weight: 2, Dims: []dist.Dim{{N: 64, P: 2, W: 4}, {N: 64, P: 2, W: 4}}, Kind: serve.JobPack, Scheme: pack.SchemeCMS, Density: 0.25},
		{Name: "l8-pack-cms", Weight: 1, Dims: []dist.Dim{{N: 32768, P: 8, W: 16}}, Kind: serve.JobPack, Scheme: pack.SchemeCMS, Density: 0.25},
		{Name: "l8-unpack-sss", Weight: 1, Dims: []dist.Dim{{N: 32768, P: 8, W: 16}}, Kind: serve.JobUnpack, Scheme: pack.SchemeSSS, Density: 0.25},
	}
}

// SmallMix is a low-cost workload of small layouts across both kinds
// and all three schemes. Its point is wall-clock budget: a
// million-request execute soak (every request run for real and
// byte-verified) finishes in minutes on one core, where DefaultMix
// would take tens of minutes.
func SmallMix() []Class {
	return []Class{
		{Name: "t2-pack-sss", Weight: 3, Dims: []dist.Dim{{N: 64, P: 2, W: 4}}, Kind: serve.JobPack, Scheme: pack.SchemeSSS, Density: 0.5},
		{Name: "t4-pack-cms", Weight: 3, Dims: []dist.Dim{{N: 128, P: 4, W: 2}}, Kind: serve.JobPack, Scheme: pack.SchemeCMS, Density: 0.7},
		{Name: "t4-unpack-css", Weight: 2, Dims: []dist.Dim{{N: 128, P: 4, W: 2}}, Kind: serve.JobUnpack, Scheme: pack.SchemeCSS, Density: 0.3},
		{Name: "t4-pack-css", Weight: 2, Dims: []dist.Dim{{N: 256, P: 4, W: 4}}, Kind: serve.JobPack, Scheme: pack.SchemeCSS, Density: 0.5},
		{Name: "t2-unpack-sss", Weight: 1, Dims: []dist.Dim{{N: 64, P: 2, W: 4}}, Kind: serve.JobUnpack, Scheme: pack.SchemeSSS, Density: 0.9},
	}
}

// Config parameterizes a harness run.
type Config struct {
	// Seed drives everything: arrival times, class choices, payloads.
	Seed uint64
	// Requests is the number of arrivals to generate.
	Requests int
	// RatePerSec is the open-loop Poisson arrival rate. 0 derives a
	// rate putting the modelled pool at ~70% utilization — itself a
	// pure function of the measured service times, hence still
	// deterministic.
	RatePerSec float64
	// Workers and Queue mirror serve.Config: the modelled pool size
	// and admission-queue capacity (defaults 8 and 256).
	Workers, Queue int
	// Mix is the workload; nil means DefaultMix.
	Mix []Class
	// Params are the sim cost-model constants (zero value: CM5).
	Params sim.Params
	// Execute additionally runs every admitted arrival through a real
	// serve.Server (sim backend) with a per-request payload,
	// byte-verifying each response against internal/seq.
	Execute bool
	// Chaos, with Execute, runs the execute-phase server in chaos
	// mode: responses must then be byte-identical or structured
	// FaultBudgetErrors (counted in Result.ExecFaulted).
	Chaos *sim.FaultConfig
	// Spans caps the retained per-request spans (default 256, for the
	// Chrome trace export).
	Spans int
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	if c.Params == (sim.Params{}) {
		c.Params = sim.CM5Params()
	}
	if c.Spans <= 0 {
		c.Spans = 256
	}
	return c
}

// ClassStat reports one class's measured service time and arrival
// share.
type ClassStat struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	ServiceUS uint64 `json:"service_us"` // warm virtual makespan
	Arrivals  int    `json:"arrivals"`
}

// Span is one request's life in the modelled queue, in virtual µs.
type Span struct {
	Class     string
	Worker    int
	ArrivalUS uint64
	StartUS   uint64
	DoneUS    uint64
}

// Result is a harness run's report. In Run (the DES) every field up
// to Spans is deterministic for a given (seed, config); the Exec*
// fields describe the optional wall-clock execute phase.
type Result struct {
	Seed       uint64  `json:"seed"`
	Requests   int     `json:"requests"`
	Admitted   int     `json:"admitted"`
	Overloaded int     `json:"overloaded"`
	RatePerSec float64 `json:"rate_per_sec"`
	// DurationUS is the virtual makespan of the whole run; throughput
	// is admitted jobs over that duration.
	DurationUS    uint64  `json:"duration_us"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency quantiles of admitted jobs (queue wait + service),
	// virtual µs, from the log-linear histogram (deterministic bucket
	// upper bounds).
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	P999US int64 `json:"p999_us"`
	// SumUS is the exact sum of all observed latencies — the
	// determinism checksum a golden test pins.
	SumUS   uint64      `json:"sum_us"`
	Classes []ClassStat `json:"classes"`
	Spans   []Span      `json:"-"`

	// Execute-phase outcome (zero unless Config.Execute).
	Executed    int     `json:"executed,omitempty"`
	ExecFaulted int     `json:"exec_faulted,omitempty"` // structured chaos failures
	ExecWallMS  float64 `json:"exec_wall_ms,omitempty"`
}

// jobFor builds request req of class ci with a seeded payload, plus
// its sequential reference answer.
func jobFor(classes []Class, ci int, seed uint64, req int) (*serve.Job, []int, int) {
	c := classes[ci]
	l := dist.MustLayout(c.Dims...)
	n := l.GlobalSize()
	// A distinct, well-mixed stream per (seed, class, request).
	x := seed ^ 0xc1a55c0ffee ^ uint64(ci)<<48 ^ uint64(req)
	splitmix64(&x)
	global := make([]int, n)
	mask := make([]bool, n)
	for i := range global {
		v := splitmix64(&x)
		global[i] = int(v % 1_000_000)
		mask[i] = unit(&x) < c.Density
	}
	job := &serve.Job{
		Tenant: c.Name, Kind: c.Kind, Layout: l,
		Global: global, Mask: mask, Scheme: c.Scheme, VectorW: c.VectorW,
	}
	if c.Kind == serve.JobPack {
		want := seq.Pack(global, mask)
		return job, want, len(want)
	}
	count := seq.Count(mask)
	vec := make([]int, count)
	for i := range vec {
		vec[i] = int(splitmix64(&x) % 1_000_000)
	}
	job.Vector = vec
	return job, seq.Unpack(vec, mask, global), count
}

// verify compares a response against its reference.
func verify(job *serve.Job, resp *serve.Response, want []int, wantCount int) error {
	got := resp.Vector
	if job.Kind == serve.JobUnpack {
		got = resp.Array
	}
	if len(got) != len(want) || resp.Count != wantCount {
		return fmt.Errorf("loadgen: %s/%v: got %d elements count %d, want %d/%d",
			job.Tenant, job.Kind, len(got), resp.Count, len(want), wantCount)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("loadgen: %s/%v: element %d = %d, want %d",
				job.Tenant, job.Kind, i, got[i], want[i])
		}
	}
	return nil
}

// measureClasses runs each class's request-0 job through a
// single-worker server on the sim backend, twice — the cold call
// compiles the plans, the warm call replays them — byte-verifying
// both, and returns the warm virtual makespans in µs (the DES service
// times).
func measureClasses(cfg Config) ([]uint64, error) {
	srv, err := serve.New(serve.Config{
		Workers: 1, Queue: len(cfg.Mix) + 1,
		Backend: transport.BackendSim, Params: cfg.Params,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	svc := make([]uint64, len(cfg.Mix))
	for ci := range cfg.Mix {
		job, want, wantCount := jobFor(cfg.Mix, ci, cfg.Seed, 0)
		var warm float64
		for pass := 0; pass < 2; pass++ {
			fut, err := srv.Submit(job)
			if err != nil {
				return nil, fmt.Errorf("loadgen: measure %s: %w", cfg.Mix[ci].Name, err)
			}
			resp, err := fut.Wait()
			if err != nil {
				return nil, fmt.Errorf("loadgen: measure %s: %w", cfg.Mix[ci].Name, err)
			}
			if err := verify(job, resp, want, wantCount); err != nil {
				return nil, err
			}
			warm = resp.VirtualUS
		}
		svc[ci] = uint64(math.Ceil(warm))
		if svc[ci] == 0 {
			svc[ci] = 1
		}
	}
	return svc, nil
}

// schedule iterates the deterministic arrival process: each call
// yields the next interarrival gap (µs, possibly 0 at high rates) and
// class index. Two splitmix64 draws per request, nothing else.
type schedule struct {
	state   uint64
	meanIa  float64 // mean interarrival, µs
	weights []int
	total   int
}

func newSchedule(seed uint64, ratePerSec float64, classes []Class) *schedule {
	s := &schedule{state: seed, meanIa: 1e6 / ratePerSec}
	for _, c := range classes {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		s.weights = append(s.weights, w)
		s.total += w
	}
	return s
}

func (s *schedule) next() (gapUS uint64, class int) {
	gapUS = uint64(-math.Log(unit(&s.state)) * s.meanIa)
	r := int(splitmix64(&s.state) % uint64(s.total))
	for i, w := range s.weights {
		if r < w {
			return gapUS, i
		}
		r -= w
	}
	return gapUS, len(s.weights) - 1
}

// deriveRate returns the deterministic default arrival rate: 70% of
// the modelled pool's capacity under the mix-weighted mean service
// time.
func deriveRate(cfg Config, svcUS []uint64) float64 {
	var num, den float64
	for i, c := range cfg.Mix {
		w := float64(c.Weight)
		if w <= 0 {
			w = 1
		}
		num += w * float64(svcUS[i])
		den += w
	}
	meanSvc := num / den
	return 0.7 * float64(cfg.Workers) * 1e6 / meanSvc
}

// Run measures the mix, then runs the discrete-event simulation of
// the admission queue over cfg.Requests Poisson arrivals — and, with
// cfg.Execute, pushes every arrival through a real server too. See
// the package comment for which outputs are deterministic.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	svcUS, err := measureClasses(cfg)
	if err != nil {
		return nil, err
	}
	rate := cfg.RatePerSec
	if rate <= 0 {
		rate = deriveRate(cfg, svcUS)
	}

	res := &Result{Seed: cfg.Seed, Requests: cfg.Requests, RatePerSec: rate}
	for i, c := range cfg.Mix {
		res.Classes = append(res.Classes, ClassStat{Name: c.Name, Weight: c.Weight, ServiceUS: svcUS[i]})
	}
	if err := res.simulate(cfg, svcUS, rate); err != nil {
		return nil, err
	}
	if cfg.Execute {
		if err := res.execute(cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// busyHeap is a min-heap of (completion time, worker) — ties broken
// by worker index so the drain order is deterministic.
type busyHeap []struct {
	done   uint64
	worker int
}

func (h busyHeap) less(i, j int) bool {
	return h[i].done < h[j].done || (h[i].done == h[j].done && h[i].worker < h[j].worker)
}
func (h *busyHeap) push(done uint64, worker int) {
	*h = append(*h, struct {
		done   uint64
		worker int
	}{done, worker})
	for i := len(*h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}
func (h *busyHeap) pop() (done uint64, worker int) {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.less(l, m) {
			m = l
		}
		if r < last && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top.done, top.worker
}

// waitRing is the fixed-capacity FIFO of admitted-but-waiting
// requests.
type waitRing struct {
	buf []struct {
		arrival, svc uint64
		class        int
	}
	head, n int
}

func newWaitRing(capacity int) *waitRing {
	return &waitRing{buf: make([]struct {
		arrival, svc uint64
		class        int
	}, capacity)}
}
func (r *waitRing) push(arrival, svc uint64, class int) {
	r.buf[(r.head+r.n)%len(r.buf)] = struct {
		arrival, svc uint64
		class        int
	}{arrival, svc, class}
	r.n++
}
func (r *waitRing) pop() (arrival, svc uint64, class int) {
	e := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e.arrival, e.svc, e.class
}

// simulate runs the discrete-event model and fills the deterministic
// half of res.
func (res *Result) simulate(cfg Config, svcUS []uint64, rate float64) error {
	sched := newSchedule(cfg.Seed, rate, cfg.Mix)
	hist := metrics.NewHistogram()

	var busy busyHeap
	free := make([]int, cfg.Workers)
	for i := range free {
		free[i] = cfg.Workers - 1 - i // pop from the tail: worker 0 first
	}
	fifo := newWaitRing(cfg.Queue)
	var t, lastDone, sum uint64

	record := func(class int, worker int, arrival, start, done uint64) {
		lat := done - arrival
		hist.Observe(int64(lat))
		sum += lat
		if done > lastDone {
			lastDone = done
		}
		if len(res.Spans) < cfg.Spans {
			res.Spans = append(res.Spans, Span{
				Class: cfg.Mix[class].Name, Worker: worker,
				ArrivalUS: arrival, StartUS: start, DoneUS: done,
			})
		}
	}
	// drain completes every worker whose job is done by time now,
	// handing freed workers the FIFO head (cascading: a dequeued job's
	// completion may itself free a worker before now).
	drain := func(now uint64) {
		for len(busy) > 0 && busy[0].done <= now {
			done, w := busy.pop()
			if fifo.n > 0 {
				arrival, svc, class := fifo.pop()
				record(class, w, arrival, done, done+svc)
				busy.push(done+svc, w)
			} else {
				free = append(free, w)
			}
		}
	}

	for i := 0; i < cfg.Requests; i++ {
		gap, class := sched.next()
		t += gap
		drain(t)
		res.Classes[class].Arrivals++
		switch {
		case len(free) > 0:
			w := free[len(free)-1]
			free = free[:len(free)-1]
			record(class, w, t, t, t+svcUS[class])
			busy.push(t+svcUS[class], w)
		case fifo.n < cfg.Queue:
			fifo.push(t, svcUS[class], class)
		default:
			res.Overloaded++
		}
	}
	drain(math.MaxUint64)

	res.Admitted = cfg.Requests - res.Overloaded
	res.DurationUS = lastDone
	if t > lastDone {
		res.DurationUS = t
	}
	if res.DurationUS > 0 {
		res.ThroughputRPS = float64(res.Admitted) / float64(res.DurationUS) * 1e6
	}
	res.P50US = hist.Quantile(0.50)
	res.P99US = hist.Quantile(0.99)
	res.P999US = hist.Quantile(0.999)
	res.SumUS = sum
	if got := hist.Count(); got != int64(res.Admitted) {
		return fmt.Errorf("loadgen: internal accounting: %d latencies for %d admitted", got, res.Admitted)
	}
	return nil
}

// execute replays the arrival stream's class choices as real jobs
// with per-request payloads through a shared server, byte-verifying
// every response. In-flight submissions are capped at the admission
// queue size so the server itself never rejects — the DES already
// models rejection; this phase is purely about correctness under
// concurrency, so it runs closed-loop at full tilt.
func (res *Result) execute(cfg Config) error {
	srv, err := serve.New(serve.Config{
		Workers: cfg.Workers, Queue: cfg.Queue,
		Backend: transport.BackendSim, Params: cfg.Params,
		Chaos: cfg.Chaos,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	sched := newSchedule(cfg.Seed, 1, cfg.Mix) // gaps ignored; class stream replayed
	sem := make(chan struct{}, cfg.Queue)
	var wg sync.WaitGroup
	var executed, faulted atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	// The class stream is sequential (it shares the DES's splitmix64
	// schedule) but payload generation and verification are
	// per-request independent, so they run on a small pool feeding the
	// server — the submit path must not be the bottleneck on
	// multi-core hosts.
	type item struct{ i, class int }
	feed := make(chan item, 64)
	go func() {
		defer close(feed)
		for i := 0; i < cfg.Requests; i++ {
			_, class := sched.next()
			feed <- item{i, class}
		}
	}()
	gens := runtime.GOMAXPROCS(0)
	if gens < 4 {
		gens = 4
	}
	var gwg sync.WaitGroup
	for g := 0; g < gens; g++ {
		gwg.Add(1)
		go func() {
			defer gwg.Done()
			for it := range feed {
				if firstErr.Load() != nil {
					continue // drain the feed so the feeder never blocks
				}
				job, want, wantCount := jobFor(cfg.Mix, it.class, cfg.Seed, it.i)
				sem <- struct{}{}
				fut, err := srv.Submit(job)
				if err != nil {
					<-sem
					firstErr.CompareAndSwap(nil, fmt.Errorf("submit %d: %w", it.i, err))
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					resp, err := fut.Wait()
					switch {
					case err == nil:
						if verr := verify(job, resp, want, wantCount); verr != nil {
							firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: %w", i, verr))
							return
						}
						executed.Add(1)
					case cfg.Chaos != nil && sim.IsFaultBudget(err):
						faulted.Add(1)
					default:
						firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: %w", i, err))
					}
				}(it.i)
			}
		}()
	}
	gwg.Wait()
	wg.Wait()
	if v := firstErr.Load(); v != nil {
		return fmt.Errorf("loadgen: execute soak failed: %w", v.(error))
	}
	res.Executed = int(executed.Load())
	res.ExecFaulted = int(faulted.Load())
	res.ExecWallMS = float64(time.Since(start).Microseconds()) / 1e3
	return nil
}
