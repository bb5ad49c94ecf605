package sim

import (
	"reflect"
	"testing"
)

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("42:drop=0.01,dup=0.005,reorder=0.01,delay=0.02,stall=0.001")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{Seed: 42, Drop: 0.01, Dup: 0.005, Reorder: 0.01, Delay: 0.02, Stall: 0.001}
	if *f != want {
		t.Errorf("ParseFaults = %+v, want %+v", *f, want)
	}
	f, err = ParseFaults("7:drop=0.5,timeout=200,retries=3,delaymax=50,stallmax=10")
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 7 || f.Drop != 0.5 || f.RetryTimeout != 200 || f.MaxRetries != 3 || f.DelayMax != 50 || f.StallMax != 10 {
		t.Errorf("ParseFaults knobs mangled: %+v", *f)
	}
	if f, err = ParseFaults("9"); err != nil || f.Seed != 9 {
		t.Errorf("bare seed: %+v, %v", f, err)
	}
	for _, bad := range []string{"", "x:drop=0.1", "1:drop", "1:bogus=0.1", "1:drop=x", "1:retries=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	for _, bad := range []FaultConfig{
		{Drop: 1.5}, {Dup: -0.1}, {Reorder: 2}, {Delay: -1}, {Stall: 7},
		{DelayMax: -1}, {StallMax: -1}, {RetryTimeout: -1},
	} {
		bad := bad
		if _, err := New(Config{Procs: 1, Faults: &bad}); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	// Defaults fill in on a normalized private copy; the caller's
	// struct stays untouched.
	user := &FaultConfig{Seed: 3, Drop: 0.1}
	m := MustNew(Config{Procs: 1, Params: CM5Params(), Faults: user})
	if err := m.Run(func(p *Proc) {
		f := p.Faults()
		if f.MaxRetries != 25 || f.RetryTimeout <= 0 || f.DelayMax <= 0 || f.StallMax <= 0 {
			panic("defaults not filled")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if user.MaxRetries != 0 {
		t.Error("caller's FaultConfig mutated by New")
	}
}

func TestTrySendWithoutFaultsIsSend(t *testing.T) {
	send := MustNew(Config{Procs: 2, Params: CM5Params()})
	try := MustNew(Config{Procs: 2, Params: CM5Params()})
	body := func(useTry bool) func(p *Proc) {
		return func(p *Proc) {
			if p.Rank() == 0 {
				for i := 0; i < 5; i++ {
					if useTry {
						if !p.TrySend(1, 7, []int{i}, 1) {
							panic("TrySend without faults failed")
						}
					} else {
						p.Send(1, 7, []int{i}, 1)
					}
				}
				return
			}
			for i := 0; i < 5; i++ {
				p.Recv(0, 7)
			}
		}
	}
	if err := send.Run(body(false)); err != nil {
		t.Fatal(err)
	}
	if err := try.Run(body(true)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(send.Stats(), try.Stats()) {
		t.Errorf("TrySend without faults diverges from Send:\n%+v\nvs\n%+v", send.Stats(), try.Stats())
	}
	if try.FaultReport() != nil {
		t.Error("FaultReport non-nil without a fault plan")
	}
}

// faultStorm is a communication-free injection workload: every rank
// fires a burst of delivery attempts at its neighbours with a naive
// bounded retry, and nobody receives — with faults on, the leftovers
// become residual instead of an undelivered-messages error. It
// exercises every injection path without needing a protocol.
func faultStorm(p *Proc) {
	n := p.NProcs()
	for i := 0; i < 120; i++ {
		dst := (p.Rank() + 1 + i%(n-1)) % n
		for attempt := 0; attempt < 3; attempt++ {
			if p.TrySend(dst, 5, i, 1) {
				break
			}
			p.RetryWait(dst, 5)
		}
		p.Charge(3)
	}
}

func stormConfig(seed uint64) Config {
	return Config{
		Procs: 6, Params: CM5Params(), Trace: true,
		Faults: &FaultConfig{Seed: seed, Drop: 0.1, Dup: 0.08, Reorder: 0.1, Delay: 0.1, Stall: 0.05},
	}
}

// TestFaultDeterminismAcrossSchedulers: a fault storm replayed with the
// same seed on a fresh machine reproduces the fault report, the stats
// and the full event streams, sequence numbers included, while a
// different seed injects at different points.
func TestFaultDeterminismAcrossSchedulers(t *testing.T) {
	run := func(seed uint64) *Machine {
		m := MustNew(stormConfig(seed))
		if err := m.Run(faultStorm); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return m
	}
	first, replay := run(11), run(11)

	rep := first.FaultReport()
	if rep == nil {
		t.Fatal("missing fault report")
	}
	if rep.Total.Injected() == 0 {
		t.Fatal("no faults injected — the storm parameters are too tame")
	}
	if rep.Total.Drops == 0 || rep.Total.Dups == 0 || rep.Total.Reorders == 0 ||
		rep.Total.Delays == 0 || rep.Total.Stalls == 0 || rep.Total.Retries == 0 {
		t.Errorf("some fault kind never fired: %+v", rep.Total)
	}
	if !reflect.DeepEqual(replay.FaultReport(), rep) {
		t.Errorf("same seed did not replay the same fault report:\n%+v\nvs\n%+v", rep, replay.FaultReport())
	}
	if !reflect.DeepEqual(replay.Stats(), first.Stats()) {
		t.Error("same seed did not replay the same stats")
	}
	if !reflect.DeepEqual(replay.Events(), first.Events()) {
		t.Error("same seed did not replay the same event streams")
	}

	other := run(12)
	repO := other.FaultReport()
	if repO.Total.Injected() == 0 {
		t.Error("seed 12 injected nothing")
	}
	if reflect.DeepEqual(repO.PerRank, rep.PerRank) {
		t.Error("different seeds produced identical injection points")
	}
}

func TestFaultResidualDuplicates(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: CM5Params(),
		Faults: &FaultConfig{Seed: 1, Dup: 1}})
	if err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if !p.TrySend(1, 9, i, 1) {
					panic("dup-only plan dropped a message")
				}
			}
			return
		}
		for i := 0; i < 5; i++ {
			p.Recv(0, 9)
		}
	}); err != nil {
		t.Fatalf("residual duplicates reported as an error: %v", err)
	}
	rep := m.FaultReport()
	if rep.Total.Dups != 5 || rep.Total.Residual != 5 {
		t.Errorf("dups=%d residual=%d, want 5/5", rep.Total.Dups, rep.Total.Residual)
	}
	if rep.PerRank[1].Residual != 5 {
		t.Errorf("residual attributed to rank %+v, want destination rank 1", rep.PerRank)
	}
	// The boxes were drained: a second run starts clean.
	if err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatalf("machine dirty after faulted run: %v", err)
	}
}

func TestFaultBudgetError(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: CM5Params(),
		Faults: &FaultConfig{Seed: 1, Drop: 1, MaxRetries: 4}})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			f := p.Faults()
			for attempt := 1; ; attempt++ {
				if p.TrySend(1, 3, nil, 0) {
					panic("drop-everything plan delivered")
				}
				if attempt > f.MaxRetries {
					p.FaultGiveUp(1, 3, attempt)
				}
				p.RetryWait(1, 3)
			}
		}
		p.Recv(0, 3) // unwound by the induced deadlock
	})
	if !IsFaultBudget(err) {
		t.Fatalf("want FaultBudgetError, got %v", err)
	}
	rep := m.FaultReport()
	if rep == nil || rep.Total.Drops != 5 || rep.Total.Retries != 4 {
		t.Errorf("report after budget exhaustion: %+v", rep)
	}
	// Per-phase tallies carry the same totals (single default phase).
	if ph := rep.PerPhase["default"]; ph.Drops != 5 {
		t.Errorf("per-phase drops = %d, want 5", ph.Drops)
	}
}

func TestFaultStatsFold(t *testing.T) {
	m := MustNew(Config{Procs: 2, Params: CM5Params(),
		Faults: &FaultConfig{Seed: 5, Drop: 0.3}})
	if err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 50; i++ {
				for !p.TrySend(1, 2, i, 1) {
					p.RetryWait(1, 2)
				}
			}
		}
		// Rank 1 deliberately leaves everything queued (residual).
	}); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	rep := m.FaultReport()
	if stats[0].Faults != rep.PerRank[0] {
		t.Errorf("Stats.Faults %+v != report per-rank %+v", stats[0].Faults, rep.PerRank[0])
	}
	if stats[0].Faults.Attempts == 0 || stats[0].Faults.Drops == 0 {
		t.Errorf("drop plan injected nothing: %+v", stats[0].Faults)
	}
}
