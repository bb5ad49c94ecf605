package comm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// runGroupsBackend executes body on an n-processor machine of the given
// backend, giving each processor the world group.
func runGroupsBackend(t *testing.T, b transport.Backend, n int, body func(g Group)) transport.Machine {
	t.Helper()
	m, err := transport.New(b, sim.Config{Procs: n, Params: sim.CM5Params()})
	if err != nil {
		t.Fatalf("New(%v): %v", b, err)
	}
	if err := m.Run(func(p transport.Endpoint) { body(World(p)) }); err != nil {
		t.Fatalf("%v machine run failed: %v", b, err)
	}
	return m
}

var bothBackends = []transport.Backend{transport.BackendSim, transport.BackendReal}

// TestGatherVRootRowNotAliased is the regression test for the root
// aliasing bug: GatherV used to store the root's live contrib slice
// directly in the result (out[root] = contrib), so mutating the
// contribution buffer after the gather silently corrupted the gathered
// row. The root's own row must be a private copy, like every remote row.
func TestGatherVRootRowNotAliased(t *testing.T) {
	for _, b := range bothBackends {
		t.Run(b.String(), func(t *testing.T) {
			runGroupsBackend(t, b, 4, func(g Group) {
				root := 1
				contrib := []int{g.Index() * 10, g.Index()*10 + 1}
				rows := GatherV(g, root, contrib, 1)
				if g.Index() != root {
					// Senders pass ownership of contrib to the network, so
					// they must not touch it again; only the root's own
					// buffer stays caller-owned.
					if rows != nil {
						panic("non-root got a gather result")
					}
					return
				}
				contrib[0] = -999 // root reuses its buffer after the gather
				for src, row := range rows {
					want := []int{src * 10, src*10 + 1}
					if !reflect.DeepEqual(row, want) {
						panic(fmt.Sprintf("row %d = %v, want %v (root row aliased caller's buffer?)", src, row, want))
					}
				}
			})
		})
	}
}

// TestGatherVNilContribution: a nil contribution gathers as a nil row,
// and the root-row clone must not turn nil into an empty slice.
func TestGatherVNilContribution(t *testing.T) {
	for _, b := range bothBackends {
		t.Run(b.String(), func(t *testing.T) {
			runGroupsBackend(t, b, 3, func(g Group) {
				var contrib []int
				if g.Index() == 2 {
					contrib = []int{5}
				}
				rows := GatherV(g, 0, contrib, 1)
				if g.Index() != 0 {
					return
				}
				if rows[0] != nil || rows[1] != nil {
					panic(fmt.Sprintf("nil contributions gathered as %v, %v; want nil, nil", rows[0], rows[1]))
				}
				if !reflect.DeepEqual(rows[2], []int{5}) {
					panic(fmt.Sprintf("row 2 = %v, want [5]", rows[2]))
				}
			})
		})
	}
}

// TestBcastNilAndEmpty is the regression test for the nil/empty
// asymmetry: broadcasting nil used to return nil at the root but a
// freshly allocated non-nil empty slice at every other member (the
// forward path cloned with cloneInts, which allocates). The contract is
// symmetry: every member gets the same value, including its nil-ness.
func TestBcastNilAndEmpty(t *testing.T) {
	cases := []struct {
		name string
		vec  []int
	}{
		{"nil", nil},
		{"empty", []int{}},
		{"nonempty", []int{3, 1, 4}},
	}
	for _, b := range bothBackends {
		for _, n := range []int{2, 3, 5, 8} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("%v/n=%d/%s", b, n, c.name), func(t *testing.T) {
					for root := 0; root < n; root++ {
						root := root
						runGroupsBackend(t, b, n, func(g Group) {
							var vec []int
							if g.Index() == root {
								vec = c.vec
							}
							got := g.Bcast(root, vec)
							if (got == nil) != (c.vec == nil) {
								panic(fmt.Sprintf("root=%d idx=%d: nil-ness broken: got %#v, root sent %#v", root, g.Index(), got, c.vec))
							}
							if !reflect.DeepEqual(got, c.vec) {
								panic(fmt.Sprintf("root=%d idx=%d: got %v, want %v", root, g.Index(), got, c.vec))
							}
						})
					}
				})
			}
		}
	}
}

// TestBarrierNonPowerOfTwo is the regression test for the
// precedence-dependent source index: the dissemination barrier computed
// its round-k source as (me-d%n+n)%n, which happens to equal the
// intended (me-d+n)%n only because d < n throughout the loop. The test
// pins completion and clock synchronization for group sizes where a
// genuine d%n reduction would matter if the loop ever changed shape.
func TestBarrierNonPowerOfTwo(t *testing.T) {
	for _, b := range bothBackends {
		for _, n := range []int{2, 3, 5, 6, 7, 12} {
			t.Run(fmt.Sprintf("%v/n=%d", b, n), func(t *testing.T) {
				m := runGroupsBackend(t, b, n, func(g Group) {
					g.Proc().Charge(g.Index() * 50)
					g.Barrier()
					g.Barrier() // back-to-back barriers must not cross-match rounds
				})
				if b != transport.BackendSim {
					return
				}
				// On the emulator the barrier also pulls every virtual clock
				// up to at least the slowest member's entry time.
				slowest := float64((n - 1) * 50)
				for _, s := range m.Stats() {
					if s.Clock < slowest {
						t.Errorf("n=%d rank %d finished at %v, before the slowest entry %v", n, s.Rank, s.Clock, slowest)
					}
				}
			})
		}
	}
}

// TestBarrierSubsetGroupNonPowerOfTwo runs the barrier on a
// non-contiguous subset group whose size is not a power of two, so the
// group-rank arithmetic (not just global ranks) is exercised.
func TestBarrierSubsetGroupNonPowerOfTwo(t *testing.T) {
	for _, b := range bothBackends {
		t.Run(b.String(), func(t *testing.T) {
			members := []int{0, 2, 3, 5, 6}
			m, err := transport.New(b, sim.Config{Procs: 7, Params: sim.CM5Params()})
			if err != nil {
				t.Fatal(err)
			}
			err = m.Run(func(p transport.Endpoint) {
				in := false
				for _, r := range members {
					if r == p.Rank() {
						in = true
					}
				}
				if !in {
					return
				}
				g, err := NewGroup(p, members)
				if err != nil {
					panic(err)
				}
				g.Barrier()
				g.Barrier()
			})
			if err != nil {
				t.Fatalf("subset barrier failed: %v", err)
			}
		})
	}
}

// ---- Retry budget accounting (MaxRetries semantics) ----

// countingEndpoint is a fake transport.FaultEndpoint for exercising the
// reliable sender's retry loop in isolation: every delivery attempt
// fails, and the hooks tally how the loop drives them.
type countingEndpoint struct {
	faults   sim.FaultConfig
	trySends int
	waits    int
	giveUpAt int // attempts value passed to FaultGiveUp
	comm     any
}

type giveUpSentinel struct{ attempts int }

func (c *countingEndpoint) Rank() int                                 { return 0 }
func (c *countingEndpoint) NProcs() int                               { return 2 }
func (c *countingEndpoint) Params() sim.Params                        { return sim.Params{} }
func (c *countingEndpoint) Clock() float64                            { return 0 }
func (c *countingEndpoint) SetPhase(name string) string               { return "" }
func (c *countingEndpoint) Charge(ops int)                            {}
func (c *countingEndpoint) Send(dst, tag int, payload any, words int) {}
func (c *countingEndpoint) SendFree(dst, tag int, payload any)        {}
func (c *countingEndpoint) Recv(src, tag int) (any, int)              { return nil, 0 }
func (c *countingEndpoint) Faults() *sim.FaultConfig                  { return &c.faults }
func (c *countingEndpoint) RetryWait(dst, tag int)                    { c.waits++ }
func (c *countingEndpoint) NoteDedup(src, tag int)                    {}
func (c *countingEndpoint) NoteStash(src, tag int)                    {}
func (c *countingEndpoint) CommState() *any                           { return &c.comm }

func (c *countingEndpoint) TrySend(dst, tag int, payload any, words int) bool {
	c.trySends++
	return false
}

func (c *countingEndpoint) FaultGiveUp(dst, tag, attempts int) {
	c.giveUpAt = attempts
	panic(giveUpSentinel{attempts: attempts})
}

// TestMaxRetriesAttemptAccounting pins the budget semantics of the
// reliable sender: MaxRetries = R permits exactly one original delivery
// attempt plus R retransmissions (R+1 TrySend calls, R RetryWait
// timeouts) before FaultGiveUp fires.
func TestMaxRetriesAttemptAccounting(t *testing.T) {
	for _, r := range []int{1, 2, 3, 7} {
		ep := &countingEndpoint{faults: sim.FaultConfig{MaxRetries: r}}
		g, err := NewGroup(ep, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				rec := recover()
				if _, ok := rec.(giveUpSentinel); !ok {
					t.Fatalf("R=%d: send ended with %v, want FaultGiveUp", r, rec)
				}
			}()
			g.send(1, 99, []int{1}, 1)
		}()
		if ep.trySends != r+1 {
			t.Errorf("R=%d: %d delivery attempts, want %d (1 original + %d retries)", r, ep.trySends, r+1, r)
		}
		if ep.waits != r {
			t.Errorf("R=%d: %d retry timeouts, want %d", r, ep.waits, r)
		}
		if ep.giveUpAt != r+1 {
			t.Errorf("R=%d: FaultGiveUp reported attempt %d, want %d", r, ep.giveUpAt, r+1)
		}
	}
}

// TestMaxRetriesBudgetOnMachine runs the same accounting end-to-end on
// the emulator under a drop-everything schedule: the machine must abort
// with a FaultBudgetError whose Attempts is exactly MaxRetries+1, and
// the fault report's counters must agree.
func TestMaxRetriesBudgetOnMachine(t *testing.T) {
	const retries = 4
	m := sim.MustNew(sim.Config{Procs: 2, Params: sim.CM5Params(),
		Faults: &sim.FaultConfig{Seed: 3, Drop: 1, MaxRetries: retries}})
	err := m.Run(func(p *sim.Proc) {
		g := World(p)
		if g.Index() == 0 {
			g.send(1, tagGather, []int{1}, 1)
		} else {
			g.recv(0, tagGather)
		}
	})
	if !sim.IsFaultBudget(err) {
		t.Fatalf("want FaultBudgetError, got %v", err)
	}
	var budget *sim.FaultBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("FaultBudgetError not unwrappable from %v", err)
	}
	if budget.Attempts != retries+1 {
		t.Errorf("gave up after %d attempts, want %d (1 original + %d retries)",
			budget.Attempts, retries+1, retries)
	}
	rep := m.FaultReport()
	if rep == nil {
		t.Fatal("no fault report")
	}
	sender := rep.PerRank[0]
	if sender.Attempts != retries+1 || sender.Retries != retries || sender.Drops != retries+1 {
		t.Errorf("sender counters %+v, want Attempts=%d Retries=%d Drops=%d",
			sender, retries+1, retries, retries+1)
	}
}

// TestRealBackendSkipsReliableEnvelope: the real backend has no fault
// plan, so the reliable wrappers must be exact pass-throughs — no
// sequence header word on the wire.
func TestRealBackendSkipsReliableEnvelope(t *testing.T) {
	m := runGroupsBackend(t, transport.BackendReal, 2, func(g Group) {
		if g.Index() == 0 {
			g.send(1, tagGather, []int{1, 2, 3}, 3)
		} else {
			if payload, words := g.recv(0, tagGather); words != 3 || len(payload.([]int)) != 3 {
				panic(fmt.Sprintf("pass-through broken: %v words", words))
			}
		}
	})
	if s := m.Stats()[0]; s.WordsSent != 3 || s.MsgsSent != 1 {
		t.Errorf("real backend sent %d words in %d msgs, want 3 in 1 (no envelope header)", s.WordsSent, s.MsgsSent)
	}
}
