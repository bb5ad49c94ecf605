package serve

import (
	"errors"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

// testLayout is a small divisible layout: 64 elements over 4
// processors, block size 4.
func testLayout(t *testing.T) *dist.Layout {
	t.Helper()
	l, err := dist.NewLayout(dist.Dim{N: 64, P: 4, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fillJob builds a deterministic pack job from a seed.
func fillJob(l *dist.Layout, seed uint64, scheme pack.Scheme) *Job {
	n := l.GlobalSize()
	global := make([]int, n)
	mask := make([]bool, n)
	x := seed
	for i := range global {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		global[i] = int(x % 1_000_000)
		mask[i] = x%3 != 0
	}
	return &Job{Tenant: "t", Kind: JobPack, Layout: l, Global: global, Mask: mask, Scheme: scheme}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Params == (sim.Params{}) {
		cfg.Params = sim.CM5Params()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSubmitPackMatchesSequentialReference(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{})
	for seed := uint64(1); seed <= 8; seed++ {
		job := fillJob(l, seed, pack.SchemeCMS)
		fut, err := s.Submit(job)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		resp, err := fut.Wait()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := seq.Pack(job.Global, job.Mask)
		if len(resp.Vector) != len(want) || resp.Count != len(want) {
			t.Fatalf("seed %d: got %d packed elements, want %d", seed, len(resp.Vector), len(want))
		}
		for i := range want {
			if resp.Vector[i] != want[i] {
				t.Fatalf("seed %d: packed[%d] = %d, want %d", seed, i, resp.Vector[i], want[i])
			}
		}
		if resp.VirtualUS <= 0 {
			t.Fatalf("seed %d: sim job reported no virtual makespan", seed)
		}
		if resp.Service <= 0 {
			t.Fatalf("seed %d: no wall service time", seed)
		}
	}
}

func TestSubmitUnpackMatchesSequentialReference(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{})
	base := fillJob(l, 7, pack.SchemeCSS)
	count := seq.Count(base.Mask)
	vec := make([]int, count)
	for i := range vec {
		vec[i] = 2_000_000 + 5*i
	}
	job := &Job{Tenant: "t", Kind: JobUnpack, Layout: l,
		Global: base.Global, Mask: base.Mask, Vector: vec, Scheme: pack.SchemeCSS}
	fut, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Unpack(vec, job.Mask, job.Global)
	if len(resp.Array) != len(want) {
		t.Fatalf("unpacked %d elements, want %d", len(resp.Array), len(want))
	}
	for i := range want {
		if resp.Array[i] != want[i] {
			t.Fatalf("unpacked[%d] = %d, want %d", i, resp.Array[i], want[i])
		}
	}
	if resp.Count != count {
		t.Fatalf("count %d, want %d", resp.Count, count)
	}
}

// TestOverloadedDeterministic pins the backpressure contract: with one
// worker held at a gate and the admission queue full, the next Submit
// returns *ErrOverloaded — every time, immediately, with a positive
// retry hint — and the queued jobs still complete once the gate opens.
func TestOverloadedDeterministic(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{Workers: 1, Queue: 2})
	gate, held := make(chan struct{}), make(chan struct{})

	blocker := fillJob(l, 1, pack.SchemeSSS)
	blocker.gate, blocker.held = gate, held
	bfut, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to hold the blocker (it has left the queue),
	// so the queue capacity below is exactly the two slots.
	<-held

	var queued []*Future
	for i := 0; i < 2; i++ {
		fut, err := s.Submit(fillJob(l, uint64(10+i), pack.SchemeCSS))
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, fut)
	}
	// Queue is now full; every further Submit must bounce, and must do
	// so deterministically (no sleeps, no flakes).
	for i := 0; i < 10; i++ {
		_, err := s.Submit(fillJob(l, uint64(100+i), pack.SchemeCMS))
		if !IsOverloaded(err) {
			t.Fatalf("attempt %d: got %v, want ErrOverloaded", i, err)
		}
		var o *ErrOverloaded
		errors.As(err, &o)
		if o.Capacity != 2 || o.Queued != 2 {
			t.Fatalf("attempt %d: queue %d/%d, want 2/2", i, o.Queued, o.Capacity)
		}
		if o.RetryAfter <= 0 {
			t.Fatalf("attempt %d: non-positive RetryAfter %v", i, o.RetryAfter)
		}
	}

	close(gate)
	if _, err := bfut.Wait(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i, fut := range queued {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("queued %d: %v", i, err)
		}
	}
}

// TestCloseDrains pins drain-on-shutdown: Close completes every
// admitted job before returning, and Submit afterwards reports
// ErrClosed.
func TestCloseDrains(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{Workers: 2, Queue: 32})
	var futs []*Future
	for i := 0; i < 16; i++ {
		fut, err := s.Submit(fillJob(l, uint64(1+i), pack.SchemeCMS))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		select {
		case <-fut.Done():
		default:
			t.Fatalf("job %d not complete after Close returned", i)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if _, err := s.Submit(fillJob(l, 99, pack.SchemeSSS)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

func TestBadJobRejectedBeforeAdmission(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{})
	cases := []*Job{
		nil,
		{Kind: JobPack},
		{Kind: JobPack, Layout: l, Global: make([]int, 3), Mask: make([]bool, 64)},
		{Kind: JobPack, Layout: l, Global: make([]int, 64), Mask: make([]bool, 3)},
		{Kind: JobKind(9), Layout: l, Global: make([]int, 64), Mask: make([]bool, 64)},
	}
	for i, job := range cases {
		if _, err := s.Submit(job); !errors.Is(err, ErrBadJob) {
			t.Fatalf("case %d: got %v, want ErrBadJob", i, err)
		}
	}
}

// TestTenantPlanCacheSharing pins the per-tenant amortization: repeat
// jobs of one tenant hit its shared cache, while a second tenant
// compiles its own plans.
func TestTenantPlanCacheSharing(t *testing.T) {
	l := testLayout(t)
	s := newTestServer(t, Config{Workers: 1})
	job := fillJob(l, 3, pack.SchemeCMS)
	for call := 0; call < 3; call++ {
		fut, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	other := fillJob(l, 3, pack.SchemeCMS)
	other.Tenant = "other"
	fut, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}

	st := s.TenantPlanStats("t")
	if st.Misses != 4 { // one compile per rank on the first call
		t.Fatalf("tenant t: %d misses, want 4", st.Misses)
	}
	if st.Hits != 8 { // two repeat calls x 4 ranks
		t.Fatalf("tenant t: %d hits, want 8", st.Hits)
	}
	so := s.TenantPlanStats("other")
	if so.Misses != 4 || so.Hits != 0 {
		t.Fatalf("tenant other: %+v, want 4 misses 0 hits (no cross-tenant sharing)", so)
	}
}

// TestTenantPlanCacheChecksHits sends two pack jobs of one tenant whose
// masks differ on rank 0 in both local words but chain to the same
// state under a fingerprint with a fixed, public starting point: the
// splitmix64 chain from 0x243f6a8885a308d3, with b1 = a1 ^ mix(h^a0) ^
// mix(h^b0). A cache that trusted such a key would answer the second
// job with the first mask's selection; each response must match
// seq.Pack.
func TestTenantPlanCacheChecksHits(t *testing.T) {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	const h = 0x243f6a8885a308d3
	l := dist.MustLayout(dist.Dim{N: 256, P: 2, W: 64})
	a := [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}
	b0 := a[0] ^ 0xff00ff00
	b := [2]uint64{b0, a[1] ^ mix(h^a[0]) ^ mix(h^b0)}
	bools := func(w [2]uint64) []bool {
		m := make([]bool, 128)
		for i := range m {
			m[i] = w[i/64]>>(i%64)&1 == 1
		}
		return m
	}
	rank1 := bools([2]uint64{0x5555aaaa5555aaaa, 0x0f0f0f0f0f0f0f0f})
	s := newTestServer(t, Config{Workers: 1})
	for i, words := range [][2]uint64{a, b} {
		job := fillJob(l, 5, pack.SchemeCMS)
		job.Mask = dist.Gather(l, [][]bool{bools(words), rank1})
		fut, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Pack(job.Global, job.Mask)
		if resp.Count != len(want) || len(resp.Vector) != len(want) {
			t.Fatalf("job %d: %d packed elements, seq.Pack %d", i, len(resp.Vector), len(want))
		}
		for k := range want {
			if resp.Vector[k] != want[k] {
				t.Fatalf("job %d: packed[%d] = %d, seq.Pack %d", i, k, resp.Vector[k], want[k])
			}
		}
	}
}
