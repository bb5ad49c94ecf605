package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// loadCase is one random job plus its sequential reference answer.
type loadCase struct {
	job       *Job
	want      []int // packed vector (JobPack) or unpacked array (JobUnpack)
	wantCount int
}

// drawLoadCase derives a random job from rng: 1-2 dimensional
// divisible layout (N = P*W*slices per dimension), random mask
// density, every scheme, both kinds. The reference answer is computed
// up front through internal/seq.
func drawLoadCase(rng *rand.Rand, tenant string) *loadCase {
	d := 1 + rng.Intn(2)
	dims := make([]dist.Dim, d)
	for i := range dims {
		p := []int{1, 2, 4}[rng.Intn(3)]
		w := 1 + rng.Intn(4)
		slices := 1 + rng.Intn(6)
		dims[i] = dist.Dim{N: p * w * slices, P: p, W: w}
	}
	l := dist.MustLayout(dims...)
	n := l.GlobalSize()
	global := make([]int, n)
	mask := make([]bool, n)
	density := rng.Float64()
	for i := range global {
		global[i] = rng.Intn(1_000_000)
		mask[i] = rng.Float64() < density
	}
	job := &Job{
		Tenant:  tenant,
		Kind:    JobKind(rng.Intn(2)),
		Layout:  l,
		Global:  global,
		Mask:    mask,
		Scheme:  []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS}[rng.Intn(3)],
		VectorW: rng.Intn(4),
	}
	lc := &loadCase{job: job}
	if job.Kind == JobPack {
		lc.want = seq.Pack(global, mask)
		lc.wantCount = len(lc.want)
	} else {
		count := seq.Count(mask)
		vec := make([]int, count)
		for i := range vec {
			vec[i] = rng.Intn(1_000_000)
		}
		job.Vector = vec
		lc.want = seq.Unpack(vec, mask, global)
		lc.wantCount = count
	}
	return lc
}

// checkCase compares a response against the case's sequential
// reference, byte for byte.
func (lc *loadCase) check(resp *Response) error {
	got := resp.Vector
	if lc.job.Kind == JobUnpack {
		got = resp.Array
	}
	if len(got) != len(lc.want) {
		return fmt.Errorf("%v: got %d elements, want %d", lc.job.Kind, len(got), len(lc.want))
	}
	for i := range lc.want {
		if got[i] != lc.want[i] {
			return fmt.Errorf("%v: element %d = %d, want %d", lc.job.Kind, i, got[i], lc.want[i])
		}
	}
	if resp.Count != lc.wantCount {
		return fmt.Errorf("%v: count %d, want %d", lc.job.Kind, resp.Count, lc.wantCount)
	}
	return nil
}

// submitAll pushes every case through the server from nSub concurrent
// submitters and waits for all futures. Each case's response is checked
// against its own reference — a job corrupted by a concurrent
// neighbour fails its own comparison.
func submitAll(t *testing.T, s *Server, cases []*loadCase, nSub int) {
	t.Helper()
	var wg sync.WaitGroup
	work := make(chan int)
	errs := make([]error, len(cases))
	for g := 0; g < nSub; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fut, err := s.Submit(cases[i].job)
				if err != nil {
					errs[i] = fmt.Errorf("submit: %w", err)
					continue
				}
				resp, err := fut.Wait()
				if err != nil {
					errs[i] = err
					continue
				}
				errs[i] = cases[i].check(resp)
			}
		}()
	}
	for i := range cases {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("case %d (%v, %d elems, scheme %v): %v",
				i, cases[i].job.Kind, len(cases[i].job.Global), cases[i].job.Scheme, err)
		}
	}
}

// TestCorrectnessUnderLoad is the correctness-under-load property
// test: N random concurrent jobs through one server, every response
// byte-identical to the sequential reference — on the sim and real
// backends.
func TestCorrectnessUnderLoad(t *testing.T) {
	const seed = 1
	n := 64
	if testing.Short() {
		n = 16
	}
	backends := []struct {
		name    string
		backend transport.Backend
	}{
		{"sim-coop", transport.BackendSim},
		{"real", transport.BackendReal},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cases := make([]*loadCase, n)
			for i := range cases {
				cases[i] = drawLoadCase(rng, fmt.Sprintf("tenant-%d", i%3))
			}
			s := newTestServer(t, Config{
				Workers: 4, Queue: n,
				Backend: b.backend,
			})
			submitAll(t, s, cases, 8)
		})
	}
}

// TestRaceHammerSharedPlanCache hammers Submit from many goroutines
// with jobs that share plan-cache fingerprints within each tenant —
// the compile path races on the shared cache by construction. Run
// with -race this doubles as the data-race test; in any mode every
// response must stay byte-identical.
func TestRaceHammerSharedPlanCache(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A few distinct shapes, repeated many times across tenants: the
	// repeats guarantee concurrent cache hits and concurrent compiles
	// of the same fingerprint.
	shapes := make([]*loadCase, 6)
	for i := range shapes {
		shapes[i] = drawLoadCase(rng, "")
	}
	reps := 10
	if testing.Short() {
		reps = 3
	}
	var cases []*loadCase
	for rep := 0; rep < reps; rep++ {
		for i, sh := range shapes {
			job := *sh.job
			job.Tenant = fmt.Sprintf("tenant-%d", (rep+i)%3)
			cases = append(cases, &loadCase{job: &job, want: sh.want, wantCount: sh.wantCount})
		}
	}
	s := newTestServer(t, Config{Workers: 8, Queue: len(cases)})
	submitAll(t, s, cases, 16)
}

// TestChaosJobsSucceedOrFailStructured pins graceful degradation: with
// chaos mode on, every job either succeeds byte-identically (the
// reliable transport absorbed the faults) or fails with a structured
// FaultBudgetError — and a failing job never corrupts a neighbour
// (every other job is still checked against its own reference).
func TestChaosJobsSucceedOrFailStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 48
	if testing.Short() {
		n = 12
	}
	cases := make([]*loadCase, n)
	for i := range cases {
		cases[i] = drawLoadCase(rng, fmt.Sprintf("tenant-%d", i%4))
	}
	s := newTestServer(t, Config{
		Workers: 4, Queue: n,
		// Harsh enough that some jobs exhaust the 2-retry budget while
		// most still get through — both arms of the contract run.
		Chaos: &sim.FaultConfig{
			Seed: 7, Drop: 0.35, Dup: 0.05, Reorder: 0.05,
			Delay: 0.05, Stall: 0.05, MaxRetries: 2,
		},
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	okN, budgetN := 0, 0
	for i := range cases {
		wg.Add(1)
		go func(lc *loadCase, i int) {
			defer wg.Done()
			fut, err := s.Submit(lc.job)
			if err != nil {
				t.Errorf("case %d: submit: %v", i, err)
				return
			}
			resp, err := fut.Wait()
			switch {
			case err == nil:
				if cerr := lc.check(resp); cerr != nil {
					t.Errorf("case %d: chaos corrupted a successful job: %v", i, cerr)
					return
				}
				mu.Lock()
				okN++
				mu.Unlock()
			case sim.IsFaultBudget(err):
				mu.Lock()
				budgetN++
				mu.Unlock()
			default:
				t.Errorf("case %d: unstructured chaos failure: %v", i, err)
			}
		}(cases[i], i)
	}
	wg.Wait()
	if okN == 0 {
		t.Fatal("chaos absorbed nothing: no job succeeded")
	}
	t.Logf("chaos: %d/%d succeeded byte-identically, %d structured budget failures", okN, n, budgetN)

	// The server must still be healthy after budget failures: a clean
	// job (chaos still on, the fault schedule restarting with every
	// machine run) completes or fails structured.
	fut, err := s.Submit(cases[0].job)
	if err != nil {
		t.Fatalf("post-chaos submit: %v", err)
	}
	if resp, err := fut.Wait(); err == nil {
		if cerr := cases[0].check(resp); cerr != nil {
			t.Fatalf("post-chaos job corrupted: %v", cerr)
		}
	} else if !sim.IsFaultBudget(err) {
		t.Fatalf("post-chaos job failed unstructured: %v", err)
	}
}

// TestChaosRejectedOnRealBackend pins the constructor guard.
func TestChaosRejectedOnRealBackend(t *testing.T) {
	_, err := New(Config{
		Backend: transport.BackendReal,
		Chaos:   &sim.FaultConfig{Seed: 1, Drop: 0.1},
	})
	if err == nil {
		t.Fatal("New accepted chaos mode on the real backend")
	}
}
