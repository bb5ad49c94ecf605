package pack

import (
	"slices"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// FuzzPackWordBoundary drives the bitset paths across word boundaries:
// P in 1..4, W_0 in 1..130 (so slices straddle the 64-element words of
// the mask bitset), one to three tiles per processor, a vector block
// size in 0..4 (0 is the block default) and mask bits from the fuzzed
// bytes. Every scheme's PACK, and UNPACK of its result, runs cold,
// through a plan cache twice (compile, then hit) and through an
// explicit plan on the emulator, and each result must equal
// internal/seq's.
func FuzzPackWordBoundary(f *testing.F) {
	f.Add(uint8(1), uint8(63), uint8(1), uint8(0), []byte{0xff, 0x01, 0x80})
	f.Add(uint8(3), uint8(99), uint8(2), uint8(2), []byte{0x5a, 0xc3, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, procs, w0, tiles, vw uint8, bits []byte) {
		p, w, tl := 1+int(procs)%4, 1+int(w0)%130, 1+int(tiles)%3
		l := dist.MustLayout(dist.Dim{N: p * w * tl, P: p, W: w})
		n := l.GlobalSize()
		gmask := make([]bool, n)
		if len(bits) > 0 {
			for i := range gmask {
				gmask[i] = bits[(i/8)%len(bits)]>>(i%8)&1 == 1
			}
		}
		global, field := make([]int, n), make([]int, n)
		for i := range global {
			global[i], field[i] = 10*i+1, -1-i
		}
		want := seq.Pack(global, gmask)
		wantA := seq.Unpack(want, gmask, field)
		locals, fLocals, mLocals := dist.Scatter(l, global), dist.Scatter(l, field), dist.Scatter(l, gmask)
		for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
			opt := Options{Scheme: scheme, VectorW: int(vw) % 5}
			uopt := opt
			if scheme == SchemeCMS {
				uopt.Scheme = SchemeCSS
			}
			cache := NewPlanCache()
			for _, mode := range []string{"cold", "compile", "hit", "explicit"} {
				o, uo := opt, uopt
				if mode == "compile" || mode == "hit" {
					o.Plans, uo.Plans = cache, cache
				}
				packed := make([]int, len(want))
				aLocals := make([][]int, p)
				m := sim.MustNew(sim.Config{Procs: p})
				err := m.Run(func(ep *sim.Proc) {
					var pr *Result[int]
					var ur *UnpackResult[int]
					var err error
					r := ep.Rank()
					if mode == "explicit" {
						var pl *Plan
						if pl, err = CompilePlan(ep, l, mLocals[r], uo); err == nil {
							if pr, err = PlanPack(ep, pl, locals[r]); err == nil {
								ur, err = PlanUnpack(ep, pl, pr.V, fLocals[r])
							}
						}
					} else {
						pr, ur = fuzzRoundTrip(ep, l, locals[r], mLocals[r], fLocals[r], o, uo)
					}
					if err != nil {
						panic(err)
					}
					dist.GatherVector(pr.Vec, r, pr.V, packed)
					aLocals[r] = ur.A
				})
				if err != nil {
					t.Fatalf("%v %s %v: %v", scheme, mode, l, err)
				}
				if !slices.Equal(packed, want) {
					t.Fatalf("%v %s %v VectorW=%d: PACK %v, seq.Pack %v", scheme, mode, l, opt.VectorW, packed, want)
				}
				if got := dist.Gather(l, aLocals); !slices.Equal(got, wantA) {
					t.Fatalf("%v %s %v VectorW=%d: UNPACK %v, seq.Unpack %v", scheme, mode, l, opt.VectorW, got, wantA)
				}
			}
			if st := cache.Stats(); st.Hits != 2*p || st.Misses != 2*p {
				t.Fatalf("%v %v: cache stats %+v, want one compile and one hit per rank and operation", scheme, l, st)
			}
		}
	})
}

// fuzzRoundTrip is one PACK and one UNPACK of its result.
func fuzzRoundTrip(p transport.Endpoint, l *dist.Layout, a []int, m []bool, field []int, opt, uopt Options) (*Result[int], *UnpackResult[int]) {
	pr, err := Pack(p, l, a, m, opt)
	if err != nil {
		panic(err)
	}
	ur, err := Unpack(p, l, pr.V, pr.Ranking.Size, m, field, uopt)
	if err != nil {
		panic(err)
	}
	return pr, ur
}
