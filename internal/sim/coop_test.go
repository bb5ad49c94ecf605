package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sendInts and recvInts move []int payloads, one machine word per
// element.
func sendInts(p *Proc, dst, tag int, v []int) { p.Send(dst, tag, v, len(v)) }

func recvInts(p *Proc, src, tag int) []int {
	payload, _ := p.Recv(src, tag)
	v, _ := payload.([]int)
	return v
}

// TestCoopVirtualClockOrder pins the scheduling contract: among
// runnable processors the smallest virtual clock runs next (ties to the
// lowest rank). Appending to the shared log without synchronization is
// safe precisely because the scheduler runs one body at a time.
func TestCoopVirtualClockOrder(t *testing.T) {
	var log []string
	m := MustNew(Config{Procs: 4, Params: Params{Tau: 1, Delta: 1}})
	err := m.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(3, 9)
			p.Charge(100)
			p.Send(1, 1, nil, 0)
			p.Send(2, 2, nil, 0)
			log = append(log, "0")
		case 1:
			p.Charge(50)
			p.Recv(0, 1)
			log = append(log, "1")
		case 2:
			p.Charge(5)
			p.Recv(0, 2)
			log = append(log, "2")
		case 3:
			p.Send(0, 9, nil, 0)
			log = append(log, "3")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 (clock 5) must be resumed before rank 1 (clock 50) once
	// rank 0's sends unblock them both.
	want := []string{"3", "0", "2", "1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("execution order %v, want %v", log, want)
	}
}

// TestCoopDeadlockExactAndDeterministic: a wait cycle on a zero-value
// machine must be reported as a deadlock error instantly (no ticker,
// no sleeps) with the full wait-for table, byte-identical on every
// run.
func TestCoopDeadlockExactAndDeterministic(t *testing.T) {
	run := func() string {
		m := MustNew(Config{Procs: 3})
		err := m.Run(func(p *Proc) {
			p.Recv((p.Rank()+1)%3, 42)
		})
		if err == nil {
			t.Fatal("wedged machine returned no error")
		}
		return err.Error()
	}
	first := run()
	if !strings.Contains(first, "deadlock") {
		t.Fatalf("diagnostic lacks 'deadlock': %q", first)
	}
	if !strings.Contains(first, "all 3 live processors blocked") ||
		!strings.Contains(first, "processor 1 waits for (src=2, tag=42)") {
		t.Fatalf("diagnostic lacks the blocked count or a waiter: %q", first)
	}
	if !strings.Contains(first, "processor 0 waits for (src=1, tag=42)") ||
		!strings.Contains(first, "processor 2 waits for (src=0, tag=42)") {
		t.Fatalf("diagnostic lacks the wait-for table: %q", first)
	}
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("deadlock diagnostic not deterministic:\n%q\n%q", first, again)
		}
	}
}

// TestCoopDeadlockPartial: one clean finisher must not hide the wedge
// of the rest, and must not be listed as a waiter.
func TestCoopDeadlockPartial(t *testing.T) {
	m := MustNew(Config{Procs: 3})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			return
		}
		p.Recv(3-p.Rank(), 7)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
	if strings.Contains(err.Error(), "processor 0 waits") {
		t.Fatalf("finished processor listed as a waiter: %v", err)
	}
	if !strings.Contains(err.Error(), "all 2 live processors blocked") ||
		!strings.Contains(err.Error(), "processor 1 waits for (src=2, tag=7)") ||
		!strings.Contains(err.Error(), "processor 2 waits for (src=1, tag=7)") {
		t.Fatalf("diagnostic lacks the wait-for table: %v", err)
	}
}

// TestCoopLongPingPong drives many block/resume cycles through the
// scheduler: a long serial dependency chain must never be mistaken for
// a deadlock.
func TestCoopLongPingPong(t *testing.T) {
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

// TestCoopRunReusable: repeated runs restart clocks and leave no
// scheduler or mailbox state behind — also after a run that failed
// with messages still queued, whose leftovers must not be received by
// the next run.
func TestCoopRunReusable(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: Params{Delta: 1}})
	for i := 0; i < 3; i++ {
		if err := m.Run(func(p *Proc) { p.Charge(4) }); err != nil {
			t.Fatal(err)
		}
		if m.MaxClock() != 4 {
			t.Fatalf("run %d: clock %v, want 4", i, m.MaxClock())
		}
	}

	failures := []struct {
		name string
		body func(p *Proc)
	}{
		{"undelivered", func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 5, "stale", 1)
			}
		}},
		{"panic", func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 5, "stale", 1)
				return
			}
			panic("receiver failed")
		}},
	}
	for _, f := range failures {
		if err := m.Run(f.body); err == nil {
			t.Fatalf("%s: failing run returned nil", f.name)
		}
		err := m.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 5, "fresh", 1)
				return
			}
			if got, _ := p.Recv(0, 5); got != "fresh" {
				panic(fmt.Sprintf("received %v, want this run's message", got))
			}
		})
		if err != nil {
			t.Fatalf("%s: run after a failed run: %v", f.name, err)
		}
	}
}

// TestCoopUndeliveredMessages: a message nobody receives fails the run
// with the post-run mailbox check.
func TestCoopUndeliveredMessages(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, nil, 0)
		}
	})
	if err == nil || err.Error() != "sim: processor 1 finished with 1 undelivered messages" {
		t.Fatalf("expected undelivered-message error, got %v", err)
	}
}

// TestPanicPreferredOverInducedDeadlock is the regression test for the
// masked-root-cause bug: when one processor panics, its peers wedge
// waiting for messages it will never send, and before the fix Run
// returned the lowest-rank error — usually a secondary deadlock
// diagnostic — instead of the originating panic.
func TestPanicPreferredOverInducedDeadlock(t *testing.T) {
	m := MustNew(Config{Procs: 4})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("root cause on rank 2")
		}
		p.Recv(2, 5) // rank 2 dies before sending: peers wedge
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if !strings.Contains(err.Error(), "processor 2 panicked: root cause on rank 2") {
		t.Errorf("root-cause panic masked: %v", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Errorf("induced deadlock diagnostics not suppressed: %v", err)
	}
}

// TestRunJoinsConcurrentErrors: several non-deadlock failures are all
// reported, aggregated with errors.Join (before the fix only the
// lowest-rank error surfaced).
func TestRunJoinsConcurrentErrors(t *testing.T) {
	m := MustNew(Config{Procs: 4})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 1 || p.Rank() == 3 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	for _, want := range []string{"processor 1 panicked", "processor 3 panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error misses %q: %v", want, err)
		}
	}
}

// TestTakeZeroesVacatedSlot is the regression test for the payload
// retention leak: compacting the queue must clear the vacated tail
// slot so the removed message's payload becomes collectable.
func TestTakeZeroesVacatedSlot(t *testing.T) {
	b := &mailbox{queue: []message{
		{src: 0, tag: 1, payload: "keep"},
		{src: 0, tag: 2, payload: "leak"},
	}}
	backing := b.queue[:2]
	if got := b.removeAt(0); got.payload != "keep" {
		t.Fatalf("took %v, want the tag-1 message", got.payload)
	}
	if backing[1].payload != nil {
		t.Fatalf("vacated tail slot still references payload %v", backing[1].payload)
	}
	if len(b.queue) != 1 || b.queue[0].payload != "leak" {
		t.Fatalf("queue corrupted by compaction: %+v", b.queue)
	}
}
