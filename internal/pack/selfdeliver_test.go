package pack

import (
	"fmt"
	"slices"
	"testing"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// selfCase is one rank's view of a self-delivery check: the rank's
// local array, field and mask bitset, the global vector seq.Pack gives,
// and the rank's portion of seq.Unpack of that vector.
type selfCase struct {
	a, field []int
	sel      []uint64
	packed   []int
	placed   []int
}

// selfSends is an endpoint that logs the word count of every message
// its rank sends itself.
type selfSends struct {
	transport.Endpoint
	words []int
}

func (s *selfSends) Send(dst, tag int, payload any, words int) {
	if dst == s.Rank() {
		s.words = append(s.words, words)
	}
	s.Endpoint.Send(dst, tag, payload, words)
}

// selfPolicy is one way a call charges its self messages: PACK's under
// pack, UNPACK's under unpack (both nil for a plan), with the words the
// three self messages (PACK's segments, UNPACK's requests and its
// reply) must travel at for segs segments holding elems elements.
type selfPolicy struct {
	name         string
	pack, unpack Scheme
	planned      bool
	words        func(segs, elems int) []int
}

var selfPolicies = []selfPolicy{
	{"cold SSS", SchemeSSS, SchemeSSS, false, func(segs, elems int) []int { return []int{2 * elems, elems, elems} }},
	{"cold CSS", SchemeCSS, SchemeCSS, false, func(segs, elems int) []int { return []int{2 * elems, 2 * segs, elems} }},
	{"cold CMS", SchemeCMS, SchemeCSS, false, func(segs, elems int) []int { return []int{2*segs + elems, 2 * segs, elems} }},
	{"planned", SchemeCMS, SchemeCSS, true, func(segs, elems int) []int { return []int{2*segs + elems, 2 * segs, elems} }},
}

// checkSelfDelivery runs one PACK and one UNPACK of its result, stage
// by stage, on rank ep from the segments of rnk over vec (counts is
// segmentCounts(rnk, vec)) under the charge policies packCS and
// unpackCS, and returns the first way they break self-delivery:
//
//   - composeSegments' self batch must carry the rank's own segment
//     headers and no data, and those segments must already be in V,
//     holding seq.Pack's elements, when compose returns;
//   - after the exchange, V must be the rank's portion of seq.Pack;
//   - serveVecRequests must fill no reply for the rank's own requests
//     while sizing it at their words;
//   - placement must leave the rank's portion of seq.Unpack;
//   - the three self messages must each travel at the words pol gives
//     for the rank's own segments.
func checkSelfDelivery(ep transport.Endpoint, sc selfCase, rnk *ranking.Result, vec dist.VectorDist, counts []int, pol selfPolicy, packCS, unpackCS *coldScan) error {
	p := &selfSends{Endpoint: ep}
	me := p.Rank()
	var own []reqSeg
	forEachRankRun(rnk, vec, func(_, dst, base, cnt int) {
		if dst == me {
			own = append(own, reqSeg{Base: base, Count: cnt})
		}
	})
	v := make([]int, vec.LocalLen(me))
	send := composeSegments(p, rnk, vec, counts, sc.sel, sc.a, v, packCS)
	var self segBatch[int]
	if len(send[me]) > 0 {
		self = send[me][0]
	}
	if !slices.Equal(self.Segs, own) || self.Data != nil {
		return fmt.Errorf("self batch holds segments %v and %d data elements, want segments %v and no data", self.Segs, len(self.Data), own)
	}
	for _, s := range own {
		_, lo := vec.Owner(s.Base)
		if got, want := v[lo:lo+s.Count], sc.packed[s.Base:s.Base+s.Count]; !slices.Equal(got, want) {
			return fmt.Errorf("after compose, V holds %v for ranks %d.., want %v", got, s.Base, want)
		}
	}
	exchangeSegments(p, send, counts, vec, v, comm.A2AOptions{}, packCS)
	for i, x := range v {
		if want := sc.packed[vec.ToGlobal(me, i)]; x != want {
			return fmt.Errorf("PACK: V[%d] = %d, seq.Pack gives %d", i, x, want)
		}
	}

	world := comm.World(p)
	reqs, _ := requestSegments(p, rnk, vec, counts, unpackCS)
	reqWords := make([]int, len(reqs))
	for dst := range reqs {
		reqWords[dst] = pol.words(counts[dst], counts[len(reqs)+dst])[1]
	}
	gotReqs := comm.AlltoallVW(world, reqs, reqWords, comm.A2AOptions{})
	replies, words := serveVecRequests(p, vec, v, gotReqs, unpackCS)
	ownWords := 0
	for _, s := range own {
		ownWords += s.Count
	}
	if replies[me] != nil || words[me] != ownWords {
		return fmt.Errorf("own reply holds %d elements at %d words, want none at %d words", len(replies[me]), words[me], ownWords)
	}
	gotData := comm.AlltoallVW(world, replies, words, comm.A2AOptions{})
	out := slices.Clone(sc.field)
	placeReplies(out, sc.sel, rnk, vec, me, v, gotData)
	if !slices.Equal(out, sc.placed) {
		return fmt.Errorf("UNPACK: A = %v, seq.Unpack gives %v", out, sc.placed)
	}
	if want := pol.words(len(own), ownWords); !slices.Equal(p.words, want) {
		return fmt.Errorf("self messages of %v words, want %v", p.words, want)
	}
	return nil
}

// TestSelfDeliveryCompact pins self-delivery in the exchanges of every
// scheme at P 2 and 3, cold (ranking, then compose and placement under
// the SSS, CSS and CMS charge policies, CMS PACK with CSS UNPACK) and
// planned (a compiled plan's arrays), with segments cut at a block and
// at a block-cyclic result vector: a rank's own segments skip the
// message buffers, the self messages travel at the scheme's words, and
// the results still equal internal/seq's.
func TestSelfDeliveryCompact(t *testing.T) {
	for _, procs := range []int{2, 3} {
		l := dist.MustLayout(dist.Dim{N: procs * 40, P: procs, W: 4})
		n := l.GlobalSize()
		global, field := make([]int, n), make([]int, n)
		for i := range global {
			global[i], field[i] = 10*i+7, -1-i
		}
		gmask := mask.FillGlobal(l, mask.NewRandom(0.6, 11, n))
		packed := seq.Pack(global, gmask)
		placed := dist.Scatter(l, seq.Unpack(packed, gmask, field))
		locals, fLocals, mLocals := dist.Scatter(l, global), dist.Scatter(l, field), dist.Scatter(l, gmask)
		for _, vw := range []int{0, 3} {
			for _, pol := range selfPolicies {
				name := fmt.Sprintf("P=%d VectorW=%d %s", procs, vw, pol.name)
				m := sim.MustNew(sim.Config{Procs: procs})
				err := m.Run(func(sp *sim.Proc) {
					var p transport.Endpoint = sp
					r := p.Rank()
					sc := selfCase{a: locals[r], field: fLocals[r], sel: mask.Bits(mLocals[r]), packed: packed, placed: placed[r]}
					opt := Options{Scheme: pol.pack, VectorW: vw}
					var err error
					if pol.planned {
						var pl *Plan
						if pl, err = CompilePlan(p, l, mLocals[r], opt); err == nil {
							err = checkSelfDelivery(p, sc, pl.rnk, pl.vec, pl.counts, pol, nil, nil)
						}
					} else {
						var pl *Plan
						if pl, err = rankPlan(p, l, sc.sel, opt, -1, pol.pack == SchemeSSS); err == nil {
							packCS := newColdScan(l, sc.sel, opt)
							unpackCS := newColdScan(l, sc.sel, Options{Scheme: pol.unpack})
							err = checkSelfDelivery(p, sc, pl.rnk, pl.vec, pl.counts, pol, packCS, unpackCS)
						}
					}
					if err != nil {
						panic(fmt.Sprintf("rank %d: %v", r, err))
					}
				})
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestSkipEmptyAllSelfExchange guards the self message's word count: at
// P=2 under a BLOCK layout (W = N/2) with a full mask, every selected
// element's rank falls in its own processor's vector block, so every
// PACK segment and UNPACK request is self-bound and the self messages
// carry no data payload. On both backends, PACK under every scheme and
// UNPACK under SSS and CSS must send the same words with SkipEmpty as
// without it, and exactly the empty peer messages fewer: P(P-1) per
// exchange, one exchange for PACK and two for UNPACK.
func TestSkipEmptyAllSelfExchange(t *testing.T) {
	const procs, n = 2, 64
	l := dist.MustLayout(dist.Dim{N: n, P: procs, W: n / procs})
	global := make([]int, n)
	for i := range global {
		global[i] = 3*i + 1
	}
	gmask := mask.FillGlobal(l, mask.Full{})
	locals, mLocals := dist.Scatter(l, global), dist.Scatter(l, gmask)
	ops := []struct {
		name      string
		scheme    Scheme
		unpack    bool
		exchanges int
	}{
		{"SSS PACK", SchemeSSS, false, 1},
		{"CSS PACK", SchemeCSS, false, 1},
		{"CMS PACK", SchemeCMS, false, 1},
		{"CSS UNPACK", SchemeCSS, true, 2},
		{"SSS UNPACK", SchemeSSS, true, 2},
	}
	for _, backend := range []transport.Backend{transport.BackendSim, transport.BackendReal} {
		for _, op := range ops {
			totals := func(skip bool) (msgs, words int64) {
				m, err := transport.New(backend, sim.Config{Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				opt := Options{Scheme: op.scheme, A2A: comm.A2AOptions{SkipEmpty: skip}}
				err = m.Run(func(p transport.Endpoint) {
					r := p.Rank()
					var err error
					if op.unpack {
						var ur *UnpackResult[int]
						ur, err = Unpack(p, l, locals[r], n, mLocals[r], make([]int, n/procs), opt)
						if err == nil && !slices.Equal(ur.A, locals[r]) {
							err = fmt.Errorf("unpacked %v, want %v", ur.A, locals[r])
						}
					} else {
						var pr *Result[int]
						pr, err = Pack(p, l, locals[r], mLocals[r], opt)
						if err == nil && !slices.Equal(pr.V, locals[r]) {
							err = fmt.Errorf("packed %v, want %v", pr.V, locals[r])
						}
					}
					if err != nil {
						panic(fmt.Sprintf("rank %d: %v", r, err))
					}
				})
				if err != nil {
					t.Fatalf("%v %s SkipEmpty=%v: %v", backend, op.name, skip, err)
				}
				for _, s := range m.Stats() {
					msgs += s.MsgsSent
					words += s.WordsSent
				}
				return msgs, words
			}
			msgs, words := totals(false)
			skipMsgs, skipWords := totals(true)
			if skipWords != words {
				t.Errorf("%v %s: SkipEmpty sent %d words, always-send %d", backend, op.name, skipWords, words)
			}
			if want := int64(op.exchanges * procs * (procs - 1)); msgs-skipMsgs != want {
				t.Errorf("%v %s: SkipEmpty sent %d messages, always-send %d; want exactly %d fewer", backend, op.name, skipMsgs, msgs, want)
			}
		}
	}
}
