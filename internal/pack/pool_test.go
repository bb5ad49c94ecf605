package pack

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// poolRoundTrip runs one PACK and then one UNPACK of its result on a
// real-backend machine and compares both with internal/seq. The
// elements are conv(i) for global index i, the field conv(-1-i).
func poolRoundTrip[T comparable](m transport.Machine, l *dist.Layout, gmask []bool, opt Options, conv func(int) T) error {
	n := l.GlobalSize()
	global, field := make([]T, n), make([]T, n)
	for i := range global {
		global[i], field[i] = conv(i), conv(-1-i)
	}
	locals, fLocals, mLocals := dist.Scatter(l, global), dist.Scatter(l, field), dist.Scatter(l, gmask)
	want := seq.Pack(global, gmask)
	packed := make([]T, len(want))
	aLocals := make([][]T, l.Procs())
	unpackOpt := opt
	if unpackOpt.Scheme == SchemeCMS {
		unpackOpt.Scheme = SchemeCSS
	}
	err := m.Run(func(p transport.Endpoint) {
		r := p.Rank()
		pr, err := Pack(p, l, locals[r], mLocals[r], opt)
		if err != nil {
			panic(err)
		}
		dist.GatherVector(pr.Vec, r, pr.V, packed)
		ur, err := Unpack(p, l, pr.V, pr.Ranking.Size, mLocals[r], fLocals[r], unpackOpt)
		if err != nil {
			panic(err)
		}
		aLocals[r] = ur.A
	})
	if err != nil {
		return err
	}
	if !slices.Equal(packed, want) {
		return fmt.Errorf("PACK %v, seq.Pack %v", packed, want)
	}
	if got := dist.Gather(l, aLocals); !slices.Equal(got, seq.Unpack(want, gmask, field)) {
		return fmt.Errorf("UNPACK %v, seq.Unpack %v", got, seq.Unpack(want, gmask, field))
	}
	return nil
}

// TestMessagePoolOwnership runs PACK then UNPACK concurrently on
// several real-backend machines, which all draw their message buffers
// from the one process-wide pool: every scheme, cold (SSS, CSS and CMS
// PACK, SSS and CSS UNPACK, each on the one segment path) and planned,
// P 3 and 4, int and string elements, a fresh random mask and vector
// block size per round. Every result must match internal/seq, so a buffer
// that went back to the pool while a peer still read it, or that
// carried stale elements into another call, shows as a wrong element;
// under -race (make real-race) it also shows as a data race.
func TestMessagePoolOwnership(t *testing.T) {
	const machines, rounds = 3, 8
	var wg sync.WaitGroup
	for id := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			procs := 3 + id%2
			rng := rand.New(rand.NewSource(int64(id)))
			m, err := transport.New(transport.BackendReal, sim.Config{Procs: procs})
			if err != nil {
				t.Error(err)
				return
			}
			cache := NewPlanCache()
			for round := range rounds {
				l := dist.MustLayout(dist.Dim{N: procs * 48, P: procs, W: []int{1, 4, 16}[round%3]})
				gmask := make([]bool, l.GlobalSize())
				density := rng.Float64()
				for i := range gmask {
					gmask[i] = rng.Float64() < density
				}
				for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
					for _, plans := range []*PlanCache{nil, cache} {
						opt := Options{Scheme: scheme, VectorW: round % 4, Plans: plans}
						name := fmt.Sprintf("machine %d round %d %v plans=%v", id, round, scheme, plans != nil)
						if err := poolRoundTrip(m, l, gmask, opt, func(i int) int { return 7*i + id }); err != nil {
							t.Errorf("%s int: %v", name, err)
						}
						if err := poolRoundTrip(m, l, gmask, opt, func(i int) string { return fmt.Sprint(id, ":", i) }); err != nil {
							t.Errorf("%s string: %v", name, err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
