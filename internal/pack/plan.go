package pack

// This file is the plan-compilation layer: the ranking stage of a
// PACK/UNPACK call is hoisted into a one-time compile, and repeat calls
// with the same (layout, mask, options) execute the compiled plan
// instead, paying no ranking collective.
//
// A plan keeps exactly what a cold compact-scheme call derives from
// its ranking: the slice arrays PS_f and PS_c, the vector
// distribution, and the local mask as a bitset (one uint64 per 64
// elements). Execution cuts the same segments a cold call cuts
// (forEachRankRun): a planned PACK walks the bitset into one data
// arena in local order and slices it into the compact message scheme's
// (base rank, count, data...) segments, and a planned UNPACK sends the
// compact storage scheme's (base rank, count) requests and places the
// replies with the same bitset walk. Both walks rely on ranks rising
// with local offset on every processor. So a warm call sends exactly
// the messages of a cold CMS PACK or CSS UNPACK, whatever scheme the
// options name, and its host work is one bitset walk instead of a
// ranking scan plus a second slice scan.
//
// The transparent cache path (Options.Plans) must keep a collective
// invariant: ranking is a collective, so every processor of the
// machine has to make the same hit-or-miss decision or the machine
// deadlocks. A single two-word prefix-reduction-sum settles both
// questions at once — see planLookup — so a warm call pays exactly one
// collective, like the ranking stage it replaces, instead of two.

import (
	"fmt"
	"math/bits"
	"slices"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// Plan is a compiled PACK/UNPACK schedule for one (layout, mask,
// options) configuration on one processor: the slice arrays of the
// ranking, the vector distribution, and the local mask as a bitset.
// Its memory is 16 bytes per slice plus one bit per local element.
// Plans are immutable once compiled and carry no references to the
// arrays they were compiled from, so they may be cached, shared across
// machines, and executed any number of times. A plan compiled for PACK
// serves UNPACK too: the same segments describe where vector data
// lands in the local array.
type Plan struct {
	layout *dist.Layout
	opt    Options // Plans stripped; A2A/Scheme/VectorW live here
	nVec   int     // PACK VECTOR length / UNPACK N'; -1 means Size
	// gfp is the global (machine-wide) fingerprint the plan was
	// compiled under — the agreement token of planLookup. Zero for
	// plans compiled through the explicit CompilePlan API.
	gfp uint64
	vec dist.VectorDist
	// rnk is the trimmed ranking result (Size/PSf/PSc/LocalTrue, never
	// Records); planned results share it across calls, so treat it as
	// read-only.
	rnk *ranking.Result
	// sel is the local mask as a bitset: element i is bit i%64 of
	// word i/64.
	sel []uint64
}

// Size returns the global number of selected elements the plan was
// compiled for.
func (pl *Plan) Size() int { return pl.rnk.Size }

// Vec returns the result/input vector distribution the plan targets.
func (pl *Plan) Vec() dist.VectorDist { return pl.vec }

// Ranking exposes the plan's trimmed ranking result (read-only).
func (pl *Plan) Ranking() *ranking.Result { return pl.rnk }

// mix64 is the splitmix64 finalizer — the same mixer the mask
// generators use — applied to fingerprint words.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maskFingerprint hashes the local mask 64 elements at a time: the
// booleans of one group pack into a bit word (maskWord), and each word
// feeds the splitmix64 mixer. The length folds in last so masks that
// differ only by trailing false elements stay distinct.
func maskFingerprint(m []bool) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for i := 0; i < len(m); i += 64 {
		h = mix64(h ^ maskWord(m[i:min(i+64, len(m))]))
	}
	return mix64(h ^ uint64(len(m)))
}

// maskWord packs up to 64 mask elements into one word, element j at
// bit j. Full words pack 8 bits at a time with branchless bool-to-bit
// conversion: the mask is hashed on every transparent call, so this
// must stay cheap next to the copies it saves.
func maskWord(c []bool) uint64 {
	var w uint64
	if len(c) == 64 {
		for j := 0; j < 64; j += 8 {
			w |= (b2u(c[j]) | b2u(c[j+1])<<1 | b2u(c[j+2])<<2 | b2u(c[j+3])<<3 |
				b2u(c[j+4])<<4 | b2u(c[j+5])<<5 | b2u(c[j+6])<<6 | b2u(c[j+7])<<7) << uint(j)
		}
		return w
	}
	for j, b := range c {
		w |= b2u(b) << uint(j)
	}
	return w
}

// b2u converts a bool to 0/1 without a branch (the compiler lowers
// this pattern to a flag-set instruction).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// planFingerprint is the local cache key: the mask hash with the
// layout dimensions, scheme, vector block size and the requested
// vector length folded in. vecLen is -1 for plain PACK (the vector
// takes the selected count), the VECTOR length for PackVector, and N'
// for UNPACK.
func planFingerprint(l *dist.Layout, m []bool, opt Options, vecLen int) uint64 {
	h := maskFingerprint(m)
	h = mix64(h ^ uint64(len(l.Dims)))
	for _, d := range l.Dims {
		h = mix64(h ^ uint64(d.N))
		h = mix64(h ^ uint64(d.P))
		h = mix64(h ^ uint64(d.W))
	}
	h = mix64(h ^ uint64(opt.Scheme))
	h = mix64(h ^ uint64(opt.VectorW))
	return mix64(h ^ uint64(int64(vecLen)))
}

// Rank salts keep the agreement sums order-sensitive: without them,
// two ranks swapping masks (or stored fingerprints) would leave the
// commutative sums unchanged.
const (
	fpRankSalt    = 0x5851f42d
	agreeRankSalt = 0x14057b7e
)

// planLookup is the collective cache negotiation of the transparent
// path, settled by ONE two-word prefix-reduction-sum (the same
// collective count as the ranking stage a warm call skips):
//
//	word 1 sums rank-salted hashes of the local mask fingerprints —
//	the global fingerprint gfp; any rank whose mask changed moves it.
//	word 2 sums rank-salted hashes of each rank's STORED global
//	fingerprint (the gfp recorded in its cached plan for this local
//	key; zero when it has none).
//
// Every rank then locally folds the sum word 2 WOULD have if every
// rank held a plan compiled under exactly this gfp. The hit/miss
// decision compares the two sums — both collective outputs — so all
// ranks decide identically by construction: a shared cache caught
// mid-fill by another machine's compile skews word 2 and the whole
// machine recompiles together, never deadlocking on a partial rank
// set. The decision is probabilistic the same way the fingerprint is
// (wrap-around sums of splitmix64 words); a collision that fakes
// unanimity against an empty slot panics rather than desyncing.
func planLookup(p transport.Endpoint, cache *PlanCache, localFP uint64, algo comm.PRSAlgorithm) (gfp uint64, pl *Plan) {
	pl = cache.get(localFP, p.Rank())
	var stored uint64
	if pl != nil {
		stored = pl.gfp
	}
	world := comm.World(p)
	prev := p.SetPhase(ranking.PhasePRS)
	contrib := []int{
		int(mix64(localFP ^ mix64(uint64(p.Rank())+fpRankSalt))),
		int(mix64(stored ^ mix64(uint64(p.Rank())+agreeRankSalt))),
	}
	_, tot := world.PrefixReductionSum(contrib, algo)
	gfp = uint64(tot[0])
	expected := 0
	for j := 0; j < p.NProcs(); j++ {
		expected += int(mix64(gfp ^ mix64(uint64(j)+agreeRankSalt)))
	}
	p.Charge(p.NProcs()) // fold the expected unanimity sum
	p.SetPhase(prev)
	if tot[1] != expected {
		cache.noteMiss()
		return gfp, nil
	}
	if pl == nil {
		// Unanimity matched but this rank holds nothing: an agreement
		// collision (~2^-64). Executing would desync the machine.
		panic("pack: plan-cache agreement collision with empty local slot")
	}
	cache.noteHit()
	return gfp, pl
}

// CompilePlan runs the ranking collective once and compiles the
// result into a plan for the calling processor. Every processor of the
// machine must call it with the same layout and options. The ranking
// stage always runs in its compact (counter-only) form, so compiling
// under the simple storage scheme costs the same as under the compact
// ones. Beyond the ranking, the compile charges one read per mask
// element: the pass that packs the mask into the plan's bitset.
func CompilePlan(p transport.Endpoint, l *dist.Layout, m []bool, opt Options) (*Plan, error) {
	return compilePlan(p, l, m, opt, -1)
}

func compilePlan(p transport.Endpoint, l *dist.Layout, m []bool, opt Options, vecLen int) (*Plan, error) {
	if len(m) != l.LocalSize() {
		return nil, fmt.Errorf("pack: local mask %d, layout needs %d", len(m), l.LocalSize())
	}
	switch opt.Scheme {
	case SchemeSSS, SchemeCSS, SchemeCMS:
	default:
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	rnk, err := ranking.Rank(p, l, m, ranking.Options{
		PRS: opt.PRS, KeepRecords: false, SeparatePrefixReduce: opt.SeparatePrefixReduce,
	})
	if err != nil {
		return nil, err
	}
	size := rnk.Size
	if vecLen >= 0 {
		if size > vecLen {
			return nil, fmt.Errorf("pack: plan vector too short: %d < Size=%d", vecLen, size)
		}
		size = vecLen
	}
	vec, err := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	pl := &Plan{layout: l, opt: opt, nVec: vecLen, vec: vec, rnk: rnk, sel: make([]uint64, (len(m)+63)/64)}
	pl.opt.Plans = nil // a plan must not retain the cache that holds it
	for i := range pl.sel {
		pl.sel[i] = maskWord(m[i*64 : min(i*64+64, len(m))])
	}
	p.Charge(len(m)) // one read per mask element: the bitset pack
	return pl, nil
}

// collectBits writes a's selected elements, in local order, to out,
// which must hold exactly as many elements as sel has set bits. The
// walk visits each set bit once (bits.TrailingZeros64 finds it, and
// word &= word-1 clears it), so the per-element cost does not depend
// on the gaps between selected elements. The loop is spelled out here,
// with no helper call per element (DESIGN §4c).
func collectBits[T any](out, a []T, sel []uint64) {
	k := 0
	for wi, word := range sel {
		for word != 0 {
			out[k] = a[wi<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			k++
		}
	}
}

// placeBits is collectBits' inverse for one segment: it writes data to
// a at the offsets of the next len(data) selected elements of sel. The
// walk resumes at word wi, whose unvisited bits are word, and returns
// its new position; (-1, 0) starts it at the first element.
func placeBits[T any](a []T, sel []uint64, wi int, word uint64, data []T) (int, uint64) {
	for _, d := range data {
		for word == 0 {
			wi++
			word = sel[wi]
		}
		a[wi<<6|bits.TrailingZeros64(word)] = d
		word &= word - 1
	}
	return wi, word
}

// composeSegmentsPlanned builds a planned PACK's messages: the bitset
// walk collects every selected element into one data arena, in local
// (and therefore rank) order, and the segment walk slices that arena
// into exactly the segments composeSegmentsCMS sends. The charge keeps
// the cost model's bulk-copy formula with the segment as its unit: one
// PS_c read per slice, two header words per segment and one op per
// datum.
func composeSegmentsPlanned[T any](p transport.Endpoint, pl *Plan, a []T) [][]segMsg[T] {
	send := make([][]segMsg[T], p.NProcs())
	data := carveSegments(pl.rnk, pl.vec, send)
	collectBits(data, a, pl.sel)
	segs := 0
	forEachRankRun(pl.rnk, pl.vec, func(_, dst, base, cnt int) {
		send[dst] = append(send[dst], segMsg[T]{Base: base, Data: data[:cnt:cnt]})
		data = data[cnt:]
		segs++
	})
	p.Charge(len(pl.rnk.PSc) + 2*segs + pl.rnk.LocalTrue)
	return send
}

// execPackPlan executes a compiled plan as PACK: bitset compose, the
// compact message scheme's exchange and decomposition. pad is only
// consulted for plans compiled with a VECTOR length.
func execPackPlan[T any](p transport.Endpoint, pl *Plan, a []T, pad []T) (*Result[T], error) {
	if len(a) != pl.layout.LocalSize() {
		return nil, fmt.Errorf("pack: local array %d, plan's layout needs %d", len(a), pl.layout.LocalSize())
	}
	vec := pl.vec
	res := &Result[T]{Vec: vec, Ranking: pl.rnk, V: make([]T, vec.LocalLen(p.Rank()))}
	if pl.nVec >= 0 {
		if len(pad) != len(res.V) {
			return nil, fmt.Errorf("pack: local VECTOR portion has %d elements, distribution gives %d", len(pad), len(res.V))
		}
		copy(res.V, pad)
		p.Charge(len(pad)) // initialize the result from the pad vector
	}
	exchangeSegments(p, composeSegmentsPlanned(p, pl, a), vec, res.V, pl.opt.A2A)
	return res, nil
}

// execUnpackPlan executes a compiled plan as UNPACK: the compact
// storage scheme's (base rank, count) requests, the owners serving
// vector slices exactly as the unplanned path does, and placement of
// the replies by the bitset walk, segment by segment in local order,
// each segment reading the next words of its owner's reply. Requests
// charge one PS_c read per slice and two header words per segment;
// placement charges two header words per segment and one op per datum.
func execUnpackPlan[T any](p transport.Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	if pl.opt.Scheme == SchemeCMS {
		return nil, fmt.Errorf("unpack: the compact message scheme applies to PACK only (requests are already compact under CSS)")
	}
	l := pl.layout
	if len(field) != l.LocalSize() {
		return nil, fmt.Errorf("unpack: local field %d, plan's layout needs %d", len(field), l.LocalSize())
	}
	vec, rnk := pl.vec, pl.rnk
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, plan's distribution gives %d", len(v), want)
	}
	n := p.NProcs()
	counts := make([]int, n)
	forEachRankRun(rnk, vec, func(_, dst, _, _ int) { counts[dst]++ })
	reqs := make([][]reqSeg, n)
	carve(reqs, counts)
	words := make([]int, n)
	segs := 0
	forEachRankRun(rnk, vec, func(_, dst, base, cnt int) {
		reqs[dst] = append(reqs[dst], reqSeg{Base: base, Count: cnt})
		words[dst] += 2
		segs++
	})
	p.Charge(len(rnk.PSc) + 2*segs) // counter-array check + request headers
	world := comm.World(p)
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, words, pl.opt.A2A)
	p.SetPhase(prev)

	replies := serveVecRequests(p, vec, v, gotReqs)

	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVOpt(world, replies, 1, pl.opt.A2A)
	p.SetPhase(prev)

	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(l.LocalSize()) // the local field-array transfer pass
	wi, word := -1, uint64(0)
	forEachRankRun(rnk, vec, func(_, src, _, cnt int) {
		wi, word = placeBits(res.A, pl.sel, wi, word, gotData[src][:cnt])
		gotData[src] = gotData[src][cnt:]
	})
	p.Charge(2*segs + rnk.LocalTrue) // per segment: header read + bulk word copy
	return res, nil
}

// PlanPack executes a compiled plan as PACK (the explicit two-step
// API: compile once with CompilePlan, execute per call with no
// per-call ranking or cache negotiation at all).
func PlanPack[T any](p transport.Endpoint, pl *Plan, a []T) (*Result[T], error) {
	if pl.nVec >= 0 {
		return nil, fmt.Errorf("pack: plan was compiled with a VECTOR length; execute it through PackVector's transparent cache path")
	}
	return execPackPlan(p, pl, a, nil)
}

// PlanUnpack executes a compiled plan as UNPACK against the plan's
// vector distribution (N' = the plan's vector size).
func PlanUnpack[T any](p transport.Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	return execUnpackPlan(p, pl, v, field)
}

// packPlanned is the transparent cache path of packImpl: fingerprint,
// collective lookup, compile on a miss, bulk execute.
func packPlanned[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, opt Options, pad []T, nVec int) (*Result[T], error) {
	fp := planFingerprint(l, m, opt, nVec)
	p.Charge(len(m)/64 + 1) // mask hashing, one op per 64-element word
	gfp, pl := planLookup(p, opt.Plans, fp, opt.PRS)
	if pl == nil {
		var err error
		pl, err = compilePlan(p, l, m, opt, nVec)
		if err != nil {
			return nil, err
		}
		pl.gfp = gfp
		opt.Plans.put(fp, p.Rank(), pl)
	}
	return execPackPlan(p, pl, a, pad)
}

// unpackPlanned is the transparent cache path of Unpack.
func unpackPlanned[T any](p transport.Endpoint, l *dist.Layout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	fp := planFingerprint(l, m, opt, nPrime)
	p.Charge(len(m)/64 + 1) // mask hashing, one op per 64-element word
	gfp, pl := planLookup(p, opt.Plans, fp, opt.PRS)
	if pl == nil {
		var err error
		pl, err = compilePlan(p, l, m, opt, nPrime)
		if err != nil {
			return nil, err
		}
		pl.gfp = gfp
		opt.Plans.put(fp, p.Rank(), pl)
	}
	return execUnpackPlan(p, pl, v, field)
}
