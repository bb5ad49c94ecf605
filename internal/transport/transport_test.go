package transport

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"packunpack/internal/metrics"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// sendInts and recvInts move []int payloads, one machine word per
// element.
func sendInts(e Endpoint, dst, tag int, v []int) { e.Send(dst, tag, v, len(v)) }

func recvInts(e Endpoint, src, tag int) []int {
	payload, _ := e.Recv(src, tag)
	v, _ := payload.([]int)
	return v
}

func TestBackendStringAndParse(t *testing.T) {
	cases := []struct {
		b Backend
		s string
	}{
		{BackendSim, "sim"},
		{BackendReal, "real"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.s {
			t.Errorf("Backend(%d).String() = %q, want %q", int(c.b), got, c.s)
		}
		b, err := ParseBackend(c.s)
		if err != nil || b != c.b {
			t.Errorf("ParseBackend(%q) = %v, %v, want %v, nil", c.s, b, err, c.b)
		}
	}
	if got := Backend(99).String(); got != "Backend(99)" {
		t.Errorf("unknown backend String() = %q", got)
	}
	if _, err := ParseBackend("cm5"); err == nil {
		t.Error("ParseBackend accepted an unknown backend name")
	}
}

func TestNewRejectsSimOnlyFeaturesOnReal(t *testing.T) {
	_, err := New(BackendReal, sim.Config{Procs: 2, Faults: &sim.FaultConfig{Seed: 1, Drop: 0.1}})
	if err == nil || !strings.Contains(err.Error(), "sim-only") {
		t.Errorf("New(real, faults) error = %v, want sim-only rejection", err)
	}
	_, err = New(Backend(7), sim.Config{Procs: 2})
	if err == nil {
		t.Error("New accepted an unknown backend")
	}
}

// TestNewAcceptsObservabilityOnReal pins that the event sink and a
// metrics registry both map onto the real backend (wall-clock event
// source) instead of being rejected.
func TestNewAcceptsObservabilityOnReal(t *testing.T) {
	reg := metrics.NewRegistry()
	sink := trace.NewRetainSink(2)
	m, err := New(BackendReal, sim.Config{Procs: 2, Params: sim.CM5Params(), Sink: sink, Metrics: reg})
	if err != nil {
		t.Fatalf("New(real, sink+metrics): %v", err)
	}
	rm := m.(*RealMachine)
	if rm.cfg.Sink != sink {
		t.Error("Sink did not map through")
	}
	if rm.Metrics() != reg {
		t.Error("Metrics registry did not map through")
	}
}

func TestNewBuildsBothBackends(t *testing.T) {
	for _, b := range []Backend{BackendSim, BackendReal} {
		m, err := New(b, sim.Config{Procs: 3, Params: sim.CM5Params()})
		if err != nil {
			t.Fatalf("New(%v): %v", b, err)
		}
		if m.Backend() != b {
			t.Errorf("Backend() = %v, want %v", m.Backend(), b)
		}
		if m.Procs() != 3 {
			t.Errorf("%v Procs() = %d, want 3", b, m.Procs())
		}
		if m.Params() != sim.CM5Params() {
			t.Errorf("%v Params() mismatch", b)
		}
	}
}

// ---- SPSC queue ----

func TestSpscFIFOAndPoll(t *testing.T) {
	q := newSpscQueue()
	if _, ok := q.poll(); ok {
		t.Fatal("poll on empty queue reported a message")
	}
	for i := 0; i < 100; i++ {
		q.put(rmsg{tag: i, words: i})
	}
	for i := 0; i < 100; i++ {
		m, ok := q.poll()
		if !ok || m.tag != i || m.words != i {
			t.Fatalf("poll %d = %+v, %v; want tag/words %d", i, m, ok, i)
		}
	}
	if _, ok := q.poll(); ok {
		t.Fatal("queue not empty after draining")
	}
}

func TestSpscTakeParksUntilPut(t *testing.T) {
	q := newSpscQueue()
	done := make(chan rmsg)
	go func() { done <- q.take() }()
	q.put(rmsg{tag: 42})
	if m := <-done; m.tag != 42 {
		t.Fatalf("take = %+v, want tag 42", m)
	}
}

func TestSpscConcurrentProducerConsumer(t *testing.T) {
	q := newSpscQueue()
	const n = 10000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.put(rmsg{tag: i})
		}
	}()
	for i := 0; i < n; i++ {
		if m := q.take(); m.tag != i {
			t.Fatalf("message %d arrived with tag %d (order broken)", i, m.tag)
		}
	}
	wg.Wait()
	if got := q.drainCount(); got != 0 {
		t.Fatalf("drainCount after full consumption = %d, want 0", got)
	}
}

// ---- Real machine ----

func TestRealMachineRingExchange(t *testing.T) {
	const p = 4
	m := MustNewReal(RealConfig{Procs: p, Params: sim.CM5Params()})
	got := make([]int, p)
	err := m.Run(func(e Endpoint) {
		me, n := e.Rank(), e.NProcs()
		e.Charge(3)
		sendInts(e, (me+1)%n, 7, []int{me * 10})
		v := recvInts(e, (me-1+n)%n, 7)
		got[me] = v[0]
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < p; i++ {
		want := ((i - 1 + p) % p) * 10
		if got[i] != want {
			t.Errorf("rank %d received %d, want %d", i, got[i], want)
		}
	}
	stats := m.Stats()
	if len(stats) != p {
		t.Fatalf("Stats() returned %d entries, want %d", len(stats), p)
	}
	for i, s := range stats {
		if s.Rank != i || s.MsgsSent != 1 || s.WordsSent != 1 || s.Ops != 3 {
			t.Errorf("rank %d stats = %+v, want 1 msg / 1 word / 3 ops", i, s)
		}
		if s.Clock <= 0 {
			t.Errorf("rank %d wall clock = %v, want > 0", i, s.Clock)
		}
	}
	if m.MaxClock() <= 0 {
		t.Error("MaxClock() <= 0 after a run")
	}
	if m.Elapsed() <= 0 {
		t.Error("Elapsed() <= 0 after a run")
	}
}

// TestRealMachineReusableAcrossRuns: queues are reused across runs and
// come back empty — also after a run that failed with a message still
// queued, which the next run must not receive.
func TestRealMachineReusableAcrossRuns(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	for round := 0; round < 3; round++ {
		err := m.Run(func(e Endpoint) {
			if e.Rank() == 0 {
				sendInts(e, 1, round, []int{round})
			} else if v := recvInts(e, 0, round); v[0] != round {
				t.Errorf("round %d delivered %d", round, v[0])
			}
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			e.Send(1, 5, "stale", 1)
			return
		}
		panic("receiver failed")
	})
	if err == nil || !strings.Contains(err.Error(), "receiver failed") {
		t.Fatalf("failing run = %v, want the receiver's panic", err)
	}
	err = m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			e.Send(1, 5, "fresh", 1)
		} else if got, _ := e.Recv(0, 5); got != "fresh" {
			t.Errorf("run after a failed run received %v, want its own message", got)
		}
	})
	if err != nil {
		t.Fatalf("run after a failed run: %v", err)
	}
}

func TestRealMachineTagMismatchStash(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		switch e.Rank() {
		case 0:
			sendInts(e, 1, 100, []int{1})
			sendInts(e, 1, 200, []int{2})
		case 1:
			// Consume in the opposite order of arrival: tag 100 must be
			// parked while tag 200 is claimed, then served from the stash.
			if v := recvInts(e, 0, 200); v[0] != 2 {
				t.Errorf("tag 200 delivered %d, want 2", v[0])
			}
			if v := recvInts(e, 0, 100); v[0] != 1 {
				t.Errorf("tag 100 delivered %d, want 1", v[0])
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRealMachineStreamFIFO(t *testing.T) {
	const n = 5000
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			for i := 0; i < n; i++ {
				sendInts(e, 1, 1, []int{i})
			}
		} else {
			for i := 0; i < n; i++ {
				if v := recvInts(e, 0, 1); v[0] != i {
					t.Errorf("message %d arrived as %d (stream order broken)", i, v[0])
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRealMachineDeadlockDetected(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			e.Recv(1, 9) // rank 1 never sends: the machine is wedged
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want deadlock diagnosis", err)
	}
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("watchdog abort %v does not match sim.ErrDeadlock", err)
	}
}

// TestRealMachineFlightRecorder pins that a flight recorder on the
// real backend's Sink fills from the emit path and still holds the
// final exchanges after a watchdog abort.
func TestRealMachineFlightRecorder(t *testing.T) {
	fr := trace.MustNewFlightRecorder(2, 32)
	m := MustNewReal(RealConfig{Procs: 2, Sink: fr})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			sendInts(e, 1, 1, []int{42})
			e.Recv(1, 9) // never sent: wedged after one real exchange
		} else {
			recvInts(e, 0, 1)
		}
	})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("Run = %v, want a sim.ErrDeadlock match", err)
	}
	snap := fr.Snapshot()
	if len(snap[0]) == 0 || len(snap[1]) == 0 {
		t.Fatalf("flight rings empty after abort: %d/%d events", len(snap[0]), len(snap[1]))
	}
	last := snap[0][len(snap[0])-1]
	if last.Kind != sim.EvRecvBlock || last.Peer != 1 || last.Tag != 9 {
		t.Fatalf("rank 0 last flight event = %+v, want the fatal recv-block on (src=1, tag=9)", last)
	}
}

// TestRealPeerPanicIsNotDeadlock pins that peer-panic unwinds do NOT
// match sim.ErrDeadlock: the flight-dump trigger must not classify a
// root-cause panic as a deadlock.
func TestRealPeerPanicIsNotDeadlock(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			panic("root cause")
		}
		e.Recv(0, 1)
	})
	if err == nil || errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("Run = %v, want a non-deadlock root-cause error", err)
	}
}

func TestRealMachinePanicUnwindsPeers(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			panic("kaboom")
		}
		e.Recv(0, 1) // would hang forever without the abort channel
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run = %v, want the root-cause panic", err)
	}
}

func TestRealMachineLeftoverMessagesReported(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 2})
	err := m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			sendInts(e, 1, 5, []int{1}) // never received
		}
	})
	if err == nil || !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("Run = %v, want undelivered-message report", err)
	}
}

// TestRealMachineFaultHooksArePanics: fault injection is sim-only, so
// the real endpoint carries no fault hooks at all — it is not a
// FaultEndpoint — while the emulator's is.
func TestRealMachineFaultHooksArePanics(t *testing.T) {
	for _, b := range []Backend{BackendReal, BackendSim} {
		m, err := New(b, sim.Config{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var isFault bool
		if err := m.Run(func(e Endpoint) { _, isFault = e.(FaultEndpoint) }); err != nil {
			t.Fatalf("%v: Run: %v", b, err)
		}
		if want := b == BackendSim; isFault != want {
			t.Errorf("%v endpoint implements FaultEndpoint = %v, want %v", b, isFault, want)
		}
	}
}

func TestRealMachineInvalidConfig(t *testing.T) {
	if _, err := NewReal(RealConfig{Procs: 0}); err == nil {
		t.Error("NewReal accepted Procs=0")
	}
	if _, err := NewReal(RealConfig{Procs: 2, Params: sim.Params{Tau: -1}}); err == nil {
		t.Error("NewReal accepted negative Tau")
	}
}

// TestRealProcPhaseAndCommState: phases switch and report the previous
// one, and the real endpoint has no CommState slot — protocol state of
// the reliable transport hangs off FaultEndpoints only.
func TestRealProcPhaseAndCommState(t *testing.T) {
	m := MustNewReal(RealConfig{Procs: 1})
	err := m.Run(func(e Endpoint) {
		if prev := e.SetPhase("ranking"); prev != "default" {
			t.Errorf("SetPhase returned previous %q, want default", prev)
		}
		if prev := e.SetPhase("transfer"); prev != "ranking" {
			t.Errorf("SetPhase returned previous %q, want ranking", prev)
		}
		if _, ok := e.(interface{ CommState() *any }); ok {
			t.Error("real endpoint still carries a CommState slot")
		}
		if e.Clock() < 0 {
			t.Error("wall Clock went negative")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// ---- Sim adapter ----

func TestSimMachineAdapter(t *testing.T) {
	m, err := New(BackendSim, sim.Config{Procs: 2, Params: sim.CM5Params()})
	if err != nil {
		t.Fatalf("New(sim): %v", err)
	}
	got := make([]int, 2)
	err = m.Run(func(e Endpoint) {
		if e.Rank() == 0 {
			sendInts(e, 1, 3, []int{17})
		} else {
			got[1] = recvInts(e, 0, 3)[0]
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 17 {
		t.Errorf("sim adapter delivered %d, want 17", got[1])
	}
	if m.Backend() != BackendSim {
		t.Errorf("Backend() = %v, want sim", m.Backend())
	}
	if m.Elapsed() <= 0 {
		t.Error("Elapsed() <= 0 after a sim run")
	}
	if len(m.Stats()) != 2 {
		t.Errorf("Stats() length = %d, want 2", len(m.Stats()))
	}
	if m.MaxClock() <= 0 {
		t.Error("sim MaxClock() <= 0 after charged communication")
	}
}
