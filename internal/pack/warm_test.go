package pack_test

import (
	"slices"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
)

// m2mSend is what a many-to-many message looks like on the wire.
type m2mSend struct{ Rank, Peer, Words int }

// m2mSends runs one CMS PACK and then one CSS UNPACK of the PACK
// result on the emulator, with the given plan cache (nil: cold), and
// returns every rank's sends of phase m2m in order, as a RetainSink on
// the machine's Sink saw them.
func m2mSends(t *testing.T, l *dist.Layout, gen mask.Gen, vectorW int, cache *pack.PlanCache) [][]m2mSend {
	t.Helper()
	sink := trace.NewRetainSink(l.Procs())
	m, err := sim.New(sim.Config{Procs: l.Procs(), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		a := make([]int, len(lm))
		for i := range a {
			a[i] = 1000*p.Rank() + i
		}
		pr, err := pack.Pack(p, l, a, lm, pack.Options{Scheme: pack.SchemeCMS, VectorW: vectorW, Plans: cache})
		if err != nil {
			panic(err)
		}
		if _, err := pack.Unpack(p, l, pr.V, pr.Ranking.Size, lm, a, pack.Options{Scheme: pack.SchemeCSS, VectorW: vectorW, Plans: cache}); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]m2mSend, l.Procs())
	for rank, evs := range sink.Events() {
		for _, ev := range evs {
			if ev.Kind == sim.EvSend && ev.Phase == pack.PhaseM2M {
				out[rank] = append(out[rank], m2mSend{ev.Rank, ev.Peer, ev.Words})
			}
		}
	}
	return out
}

// TestWarmSendsColdMessages pins the plan's message shape: a plan-cache
// hit must send exactly the many-to-many messages of a cold CMS PACK
// and CSS UNPACK — same ranks, peers and word counts, in the same order
// — over P in {2, 3, 4}, 1-D and 2-D layouts, W_0 in {1, 3, 64}, the
// block and a block-cyclic vector distribution, and densities 0–1.
func TestWarmSendsColdMessages(t *testing.T) {
	for _, procs := range []int{2, 3, 4} {
		for _, w0 := range []int{1, 3, 64} {
			p1 := 1 + (procs+1)%2 // 2-D grids 1x2, 3x1 and 2x2
			layouts := []*dist.Layout{
				dist.MustLayout(dist.Dim{N: procs * 6 * w0, P: procs, W: w0}),
				dist.MustLayout(dist.Dim{N: procs / p1 * 2 * w0, P: procs / p1, W: w0}, dist.Dim{N: 3 * p1, P: p1, W: 1}),
			}
			for _, l := range layouts {
				shape := make([]int, l.Rank())
				for i, d := range l.Dims {
					shape[i] = d.N
				}
				for _, vw := range []int{0, 5} {
					for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
						gen := mask.NewRandom(density, 17, shape...)
						cold := m2mSends(t, l, gen, vw, nil)
						cache := pack.NewPlanCache()
						m2mSends(t, l, gen, vw, cache) // compile
						warm := m2mSends(t, l, gen, vw, cache)
						if st := cache.Stats(); st.Hits != 2*procs {
							t.Fatalf("%v VectorW=%d density %.1f: cache stats %+v, want %d hits", l, vw, density, st, 2*procs)
						}
						for rank := range cold {
							if !slices.Equal(warm[rank], cold[rank]) {
								t.Fatalf("%v VectorW=%d density %.1f rank %d: warm sends %v, cold sends %v",
									l, vw, density, rank, warm[rank], cold[rank])
							}
						}
					}
				}
			}
		}
	}
}
