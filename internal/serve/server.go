package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// Config describes a service instance.
type Config struct {
	// Workers is the shared worker-pool size: how many jobs execute
	// concurrently. Each worker runs one whole machine at a time (the
	// machine itself may spawn P processor goroutines on the real
	// backend). 0 defaults to GOMAXPROCS.
	Workers int
	// Queue is the admission-queue capacity: jobs admitted but not yet
	// picked up by a worker. A Submit that finds the queue full is
	// rejected with ErrOverloaded — the open-loop overload contract.
	// 0 defaults to 64.
	Queue int
	// Backend selects the transport every job's machine runs on:
	// BackendSim (virtual clock, deterministic, the default) or
	// BackendReal (host-parallel, wall clock).
	Backend transport.Backend
	// Params are the cost-model constants each machine carries.
	Params sim.Params
	// Chaos, when non-nil, is the opt-in chaos mode: every sim machine
	// runs under this deterministic fault-injection plan. Jobs then
	// either succeed byte-identically (the reliable transport absorbs
	// the faults) or fail with a structured FaultBudgetError; they can
	// never corrupt another job's result (each job owns its buffers).
	// Rejected with the real backend, like sim.Config.Faults.
	Chaos *sim.FaultConfig
	// DisablePlans turns the per-tenant plan caches off (every job
	// ranks from scratch). Mostly for A/B tests.
	DisablePlans bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	return c
}

// task is one admitted job in flight.
type task struct {
	job       *Job
	fut       *Future
	submitted time.Time
}

// Future is the handle Submit returns: wait on it for the job's
// response. Safe to Wait from multiple goroutines.
type Future struct {
	done chan struct{}
	resp *Response
	err  error
}

// Wait blocks until the job completes and returns its response or
// execution error.
func (f *Future) Wait() (*Response, error) {
	<-f.done
	return f.resp, f.err
}

// Done returns a channel closed when the job has completed.
func (f *Future) Done() <-chan struct{} { return f.done }

func (f *Future) complete(resp *Response, err error) {
	f.resp, f.err = resp, err
	close(f.done)
}

// Server multiplexes PACK/UNPACK jobs over a shared worker pool.
type Server struct {
	cfg   Config
	queue chan *task

	mu     sync.RWMutex // guards closed vs. in-flight Submits
	closed bool
	wg     sync.WaitGroup

	tenants sync.Map // tenant name -> *pack.PlanCache

	depth       atomic.Int64 // jobs admitted but not yet started
	ewmaSvcUS   atomic.Int64 // EWMA of wall service time, microseconds
	jobsStarted atomic.Int64
}

// New builds and starts a server: its workers are running and Submit
// is ready. Close drains it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Chaos != nil && cfg.Backend == transport.BackendReal {
		return nil, fmt.Errorf("serve: chaos mode is sim-only (fault injection needs the emulator's omniscient network)")
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *task, cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// validate rejects malformed jobs before admission.
func (j *Job) validate() error {
	if j == nil || j.Layout == nil {
		return fmt.Errorf("%w: nil job or layout", ErrBadJob)
	}
	n := j.Layout.GlobalSize()
	if len(j.Global) != n {
		return fmt.Errorf("%w: global array has %d elements, layout %d", ErrBadJob, len(j.Global), n)
	}
	if len(j.Mask) != n {
		return fmt.Errorf("%w: mask has %d elements, layout %d", ErrBadJob, len(j.Mask), n)
	}
	if j.Kind != JobPack && j.Kind != JobUnpack {
		return fmt.Errorf("%w: unknown kind %v", ErrBadJob, j.Kind)
	}
	return nil
}

// Submit validates and admits a job. It never blocks: a full admission
// queue rejects with *ErrOverloaded (deterministically — the queue
// capacity is fixed and the check is a single non-blocking attempt),
// a closed server with ErrClosed. On success the returned Future
// resolves when the job completes.
func (s *Server) Submit(job *Job) (*Future, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	t := &task{job: job, fut: &Future{done: make(chan struct{})}, submitted: time.Now()}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case s.queue <- t:
		s.depth.Add(1)
		return t.fut, nil
	default:
		return nil, &ErrOverloaded{
			Queued:     cap(s.queue),
			Capacity:   cap(s.queue),
			RetryAfter: s.retryAfter(),
		}
	}
}

// retryAfter estimates how long until a queue slot frees: the backlog
// ahead of a retry, served at the pool's observed per-job rate. Before
// any job has completed the estimate falls back to one millisecond.
func (s *Server) retryAfter() time.Duration {
	per := time.Duration(s.ewmaSvcUS.Load()) * time.Microsecond
	if per <= 0 {
		per = time.Millisecond
	}
	backlog := int(s.depth.Load()) + s.cfg.Workers // queued + possibly in service
	return per * time.Duration(1+backlog/s.cfg.Workers)
}

// Close stops admission and drains: every admitted job still runs to
// completion (its Future resolves) before Close returns. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// TenantPlanStats returns the plan-cache counters of one tenant's
// shared cache (zero when the tenant has no cache yet or plans are
// disabled).
func (s *Server) TenantPlanStats(tenant string) pack.PlanCacheStats {
	if v, ok := s.tenants.Load(tenant); ok {
		return v.(*pack.PlanCache).Stats()
	}
	return pack.PlanCacheStats{}
}

// planCacheFor resolves the tenant's shared plan cache.
func (s *Server) planCacheFor(tenant string) *pack.PlanCache {
	if s.cfg.DisablePlans {
		return nil
	}
	if v, ok := s.tenants.Load(tenant); ok {
		return v.(*pack.PlanCache)
	}
	v, _ := s.tenants.LoadOrStore(tenant, pack.NewPlanCache())
	return v.(*pack.PlanCache)
}

// machineFor reuses (or builds) the worker-local machine for a given
// processor count. Machines are per worker, never shared: Machine.Run
// must not be called concurrently.
func (s *Server) machineFor(cache map[int]transport.Machine, procs int) (transport.Machine, error) {
	if m, ok := cache[procs]; ok {
		return m, nil
	}
	m, err := transport.New(s.cfg.Backend, sim.Config{
		Procs:  procs,
		Params: s.cfg.Params,
		Faults: s.cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	cache[procs] = m
	return m, nil
}

// worker drains the admission queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	machines := make(map[int]transport.Machine)
	for t := range s.queue {
		s.depth.Add(-1)
		start := time.Now()
		if t.job.gate != nil {
			close(t.job.held)
			<-t.job.gate
		}
		s.jobsStarted.Add(1)

		resp, err := s.execute(machines, t.job)

		svc := time.Since(start)
		if err == nil {
			resp.Queue = start.Sub(t.submitted)
			resp.Service = svc
		}
		s.noteService(svc)
		t.fut.complete(resp, err)
	}
}

// execute runs one job on the worker's machine. A machine is reused
// after an errored run too: every Run leaves it empty, whatever it
// returned.
func (s *Server) execute(machines map[int]transport.Machine, job *Job) (*Response, error) {
	m, err := s.machineFor(machines, job.Layout.Procs())
	if err != nil {
		return nil, err
	}
	return runJob(m, job, s.planCacheFor(job.Tenant))
}

// noteService folds one wall service time into the EWMA (alpha 1/8)
// behind the RetryAfter hint.
func (s *Server) noteService(svc time.Duration) {
	us := svc.Microseconds()
	if us <= 0 {
		us = 1
	}
	old := s.ewmaSvcUS.Load()
	if old == 0 {
		s.ewmaSvcUS.CompareAndSwap(0, us)
		return
	}
	s.ewmaSvcUS.CompareAndSwap(old, old+(us-old)/8)
}
