package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0}); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := New(Config{Procs: -3}); err == nil {
		t.Error("negative Procs accepted")
	}
	if _, err := New(Config{Procs: 2, Params: Params{Tau: -1}}); err == nil {
		t.Error("negative Tau accepted")
	}
	if m, err := New(Config{Procs: 2}); err != nil || m == nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{Procs: 0})
}

func TestRunSPMD(t *testing.T) {
	m := MustNew(Config{Procs: 8})
	var count int64
	err := m.Run(func(p *Proc) {
		atomic.AddInt64(&count, 1)
		if p.NProcs() != 8 {
			panic("wrong NProcs")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("body ran %d times, want 8", count)
	}
}

func TestRunReportsPanics(t *testing.T) {
	m := MustNew(Config{Procs: 4})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 2 panicked") {
		t.Fatalf("expected panic report, got %v", err)
	}
}

func TestRunDetectsUndeliveredMessages(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, nil, 0)
		}
		// Rank 1 never receives.
	})
	if err == nil || !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("expected undelivered-message error, got %v", err)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	m := MustNew(Config{Procs: 1, Params: Params{Delta: 0.5}})
	err := m.Run(func(p *Proc) {
		p.Charge(10)
		p.Charge(0)  // no-op
		p.Charge(-5) // no-op
		if p.Clock() != 5 {
			panic(fmt.Sprintf("clock %v, want 5", p.Clock()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()[0]
	if s.Comp != 5 || s.Ops != 10 || s.Comm != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSendRecvCostModel(t *testing.T) {
	// tau=10, mu=2: a 5-word message costs 10+10=20 at the sender; the
	// receiver (idle) advances to the arrival time.
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 10, Mu: 2}})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []int{1, 2, 3, 4, 5}, 5)
			if p.Clock() != 20 {
				panic(fmt.Sprintf("sender clock %v, want 20", p.Clock()))
			}
		} else {
			v := recvInts(p, 0, 1)
			if !reflect.DeepEqual(v, []int{1, 2, 3, 4, 5}) {
				panic("payload corrupted")
			}
			if p.Clock() != 20 {
				panic(fmt.Sprintf("receiver clock %v, want 20", p.Clock()))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st[0].MsgsSent != 1 || st[0].WordsSent != 5 {
		t.Fatalf("sender stats %+v", st[0])
	}
	if m.MaxClock() != 20 {
		t.Fatalf("MaxClock %v, want 20", m.MaxClock())
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	// A receiver already past the arrival time keeps its clock.
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 1, Mu: 0, Delta: 1}})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 0) // arrival at t=1
		} else {
			p.Charge(100) // clock 100
			p.Recv(0, 1)
			if p.Clock() != 100 {
				panic(fmt.Sprintf("receiver clock %v, want 100", p.Clock()))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendPolicy(t *testing.T) {
	for _, free := range []bool{false, true} {
		m := MustNew(Config{Procs: 1, Params: Params{Tau: 10, Mu: 1}, SelfSendFree: free})
		err := m.Run(func(p *Proc) {
			p.Send(0, 1, []int{1, 2}, 2)
			p.Recv(0, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 12.0
		if free {
			want = 0
		}
		if got := m.MaxClock(); got != want {
			t.Errorf("SelfSendFree=%v: clock %v, want %v", free, got, want)
		}
	}
}

func TestTagMatchingAndFIFO(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			sendInts(p, 1, 5, []int{50})
			sendInts(p, 1, 3, []int{30})
			sendInts(p, 1, 5, []int{51})
		} else {
			// Receive out of tag order: tag 3 first, then the two
			// tag-5 messages must come back in send order.
			if v := recvInts(p, 0, 3); v[0] != 30 {
				panic("tag 3 mismatched")
			}
			if v := recvInts(p, 0, 5); v[0] != 50 {
				panic("tag 5 not FIFO")
			}
			if v := recvInts(p, 0, 5); v[0] != 51 {
				panic("tag 5 second message wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhaseAttribution(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 5, Mu: 1, Delta: 1}})
	err := m.Run(func(p *Proc) {
		p.Charge(3) // default phase
		prev := p.SetPhase("stage2")
		if prev != "default" {
			panic("unexpected previous phase")
		}
		p.Charge(7)
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 4)
		} else {
			p.Recv(0, 1)
		}
		p.SetPhase(prev)
		p.Charge(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	s0 := m.Stats()[0]
	if s0.Phases["default"].Comp != 5 {
		t.Errorf("default comp %v, want 5", s0.Phases["default"].Comp)
	}
	if s0.Phases["stage2"].Comp != 7 || s0.Phases["stage2"].Comm != 9 {
		t.Errorf("stage2 %+v, want comp 7 comm 9", s0.Phases["stage2"])
	}
	total, comp, comm := m.MaxPhase("stage2")
	if comp != 7 || comm < 9 || total < 16 {
		t.Errorf("MaxPhase = %v %v %v", total, comp, comm)
	}
	names := m.PhaseNames()
	if !reflect.DeepEqual(names, []string{"default", "stage2"}) {
		t.Errorf("PhaseNames = %v", names)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Stats {
		m := MustNew(Config{Procs: 8, Params: CM5Params()})
		err := m.Run(func(p *Proc) {
			// An irregular exchange pattern.
			n := p.NProcs()
			for r := 1; r < n; r++ {
				dst := (p.Rank() + r) % n
				buf := make([]int, (p.Rank()*r)%7)
				sendInts(p, dst, r, buf)
			}
			for r := 1; r < n; r++ {
				src := (p.Rank() - r + n) % n
				recvInts(p, src, r)
			}
			p.Charge(p.Rank() * 10)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated runs produced different statistics")
	}
}

func TestRunReusable(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Delta: 1}})
	for i := 0; i < 3; i++ {
		err := m.Run(func(p *Proc) { p.Charge(4) })
		if err != nil {
			t.Fatal(err)
		}
		if m.MaxClock() != 4 {
			t.Fatalf("run %d: clock %v, want 4 (clocks must reset)", i, m.MaxClock())
		}
	}
}

func TestSendValidation(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		defer func() {
			if recover() == nil {
				panic("Send to invalid rank did not panic")
			}
		}()
		p.Send(5, 1, nil, 0)
	})
	// The inner panic is converted into the outer panic's absence;
	// Run must not report an error because the recover swallowed it...
	// except our deferred check re-panics when Send does NOT panic.
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSendNegativeWordsPanics(t *testing.T) {
	m := MustNew(Config{Procs: 1})
	err := m.Run(func(p *Proc) {
		defer func() {
			if recover() == nil {
				panic("negative words did not panic")
			}
		}()
		p.Send(0, 1, nil, -1)
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCM5ParamsSane(t *testing.T) {
	p := CM5Params()
	if p.Tau <= 0 || p.Mu <= 0 || p.Delta <= 0 {
		t.Fatalf("CM5Params not positive: %+v", p)
	}
	if p.Tau < p.Mu {
		t.Fatal("start-up cost should dominate per-word cost")
	}
}

func TestMaxClockEmpty(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	if m.MaxClock() != 0 {
		t.Fatal("MaxClock before any run should be 0")
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// A chain of messages: each hop adds tau+mu*words; the final clock
	// must be the sum along the chain regardless of real scheduling.
	const hops = 5
	m := MustNew(Config{Procs: hops + 1, Params: Params{Tau: 3, Mu: 1}})
	err := m.Run(func(p *Proc) {
		r := p.Rank()
		if r > 0 {
			p.Recv(r-1, 9)
		}
		if r < hops {
			p.Send(r+1, 9, nil, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(hops * (3 + 2))
	if got := m.MaxClock(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("chain clock %v, want %v", got, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := MustNew(Config{Procs: 3})
	err := m.Run(func(p *Proc) {
		// Everybody waits for a message from the next processor that
		// nobody ever sends: a classic wait cycle.
		p.Recv((p.Rank()+1)%3, 42)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
}

func TestDeadlockDetectionPartial(t *testing.T) {
	// One processor finishes cleanly; the others wedge on each other.
	m := MustNew(Config{Procs: 3})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			return
		}
		p.Recv(3-p.Rank(), 7) // 1 waits for 2, 2 waits for 1
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
}

func TestNoFalseDeadlockOnSlowPingPong(t *testing.T) {
	// A long serial dependency chain with queued-but-unconsumed
	// messages must NOT be reported as a deadlock.
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		other := 1 - p.Rank()
		for i := 0; i < 2000; i++ {
			if p.Rank() == 0 {
				p.Send(other, i, nil, 0)
				p.Recv(other, i)
			} else {
				p.Recv(other, i)
				p.Send(other, i, nil, 0)
			}
		}
	})
	if err != nil {
		t.Fatalf("false deadlock: %v", err)
	}
}

func TestMachineAccessors(t *testing.T) {
	m := MustNew(Config{Procs: 3, Params: Params{Tau: 1, Mu: 2, Delta: 3}})
	if m.Procs() != 3 {
		t.Fatalf("Procs = %d", m.Procs())
	}
	if m.Params() != (Params{Tau: 1, Mu: 2, Delta: 3}) {
		t.Fatalf("Params = %+v", m.Params())
	}
	err := m.Run(func(p *Proc) {
		if p.Params().Mu != 2 {
			panic("Proc.Params wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendFreeCostsNothing(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Tau: 100, Mu: 100}})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 9, "hello")
			if p.Clock() != 0 {
				panic("SendFree charged time")
			}
		} else {
			payload, words := p.Recv(0, 9)
			if payload.(string) != "hello" || words != 0 {
				panic("SendFree payload mangled")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Stats() {
		if s.MsgsSent != 0 || s.WordsSent != 0 {
			t.Fatalf("SendFree counted in stats: %+v", s)
		}
	}
}

func TestSendFreeValidation(t *testing.T) {
	m := MustNew(Config{Procs: 1})
	err := m.Run(func(p *Proc) {
		defer func() {
			if recover() == nil {
				panic("SendFree to invalid rank did not panic")
			}
		}()
		p.SendFree(9, 1, nil)
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSpansRecordedInSim(t *testing.T) {
	m := MustNew(Config{Procs: 1, Params: Params{Delta: 1}, Record: true})
	if err := m.Run(func(p *Proc) { p.Charge(3); p.SetPhase("x"); p.Charge(2) }); err != nil {
		t.Fatal(err)
	}
	spans := m.Spans()
	if len(spans) != 1 || len(spans[0]) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0][1].Phase != "x" || spans[0][1].End != 5 {
		t.Fatalf("second span wrong: %+v", spans[0][1])
	}
}
