package pack

// This file is the plan-compilation layer: the ranking stage of a
// PACK/UNPACK call is hoisted into a one-time compile, and repeat calls
// with the same (layout, mask, options) execute the compiled plan
// instead, paying no ranking collective.
//
// A plan keeps exactly what any call derives from its ranking: the
// slice arrays PS_f and PS_c, the vector distribution, and the local
// mask as a bitset (one uint64 per 64 elements). Every call executes a
// plan (execPackPlan, execUnpackPlan): a cold call ranks, derives a plan
// for that call alone (rankPlan) and executes it under its scheme's
// charges (coldScan); a compiled plan is executed under the bulk-copy
// charges (see below). Execution cuts the same segments either way
// (forEachRankRun) and runs the same compose, request and placement
// code, so a warm call sends exactly the messages of a cold CMS PACK or
// CSS UNPACK, whatever scheme the options name, and its host work skips
// the ranking stage.
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
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// Plan is a compiled PACK/UNPACK schedule for one (layout, mask,
// options) configuration on one processor: the slice arrays of the
// ranking, the vector distribution, and the local mask as a bitset.
// Its memory is 16 bytes per slice, one bit per local element and two
// words per destination. Plans are immutable once compiled and carry
// no references to the arrays they were compiled from, so they may be
// cached, shared across machines, and executed any number of times. A
// plan compiled for PACK serves UNPACK too: the same segments describe
// where vector data lands in the local array.
type Plan struct {
	layout *dist.Layout
	opt    Options // Plans stripped; A2A/Scheme/VectorW live here
	nVec   int     // PACK VECTOR length / UNPACK N'; -1 means Size
	// gfp is the global (machine-wide) fingerprint the plan was
	// compiled under — the agreement token of planLookup. Zero for
	// plans compiled through the explicit CompilePlan API.
	gfp uint64
	vec dist.VectorDist
	// rnk is the ranking result: trimmed (Size/PSf/PSc/LocalTrue, never
	// Records) in a compiled plan, whose results share it across calls,
	// so treat it as read-only.
	rnk *ranking.Result
	// sel is the local mask as a bitset: element i is bit i%64 of
	// word i/64.
	sel []uint64
	// counts is segmentCounts(rnk, vec): the segments, then the
	// elements, per destination.
	counts []int
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

// planFingerprint is the local cache key: the mask words hashed from
// the cache's random seed (maskChain), then the local mask length, the
// layout dimensions, scheme, vector block size and the requested
// vector length. vecLen is -1 for plain PACK (the vector takes the
// selected count), the VECTOR length for PackVector, and N' for
// UNPACK. Each chain step is a bijection of its word, so anyone who
// knows the chains' starting points can build two masks with one key;
// the secret seed keeps those points unknown, and a hit is checked
// against the plan anyway (Plan.compiledFor).
func planFingerprint(seed uint64, l *dist.Layout, sel []uint64, opt Options, vecLen int) uint64 {
	h := maskChain(seed, sel)
	h = mix64(h ^ uint64(l.LocalSize()))
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

// maskChain hashes the mask words from seed: word i feeds lane i%4 of
// four splitmix64 chains, each started from its own mix of the seed, so
// the four chains' multiplies overlap (a third of one chain's time on
// 2^13 words), and the lanes fold into one word at the end.
func maskChain(seed uint64, sel []uint64) uint64 {
	var h [4]uint64
	for l := range h {
		h[l] = mix64(seed + uint64(l))
	}
	i := 0
	for ; i+4 <= len(sel); i += 4 {
		h[0] = mix64(h[0] ^ sel[i])
		h[1] = mix64(h[1] ^ sel[i+1])
		h[2] = mix64(h[2] ^ sel[i+2])
		h[3] = mix64(h[3] ^ sel[i+3])
	}
	for ; i < len(sel); i++ {
		h[i&3] = mix64(h[i&3] ^ sel[i])
	}
	return mix64(h[0] ^ mix64(h[1]^mix64(h[2]^mix64(h[3]))))
}

// compiledFor reports whether the plan was compiled for exactly this
// call: the same mask words, layout, scheme, vector block size and
// vector length, everything the fingerprint keys.
func (pl *Plan) compiledFor(l *dist.Layout, sel []uint64, opt Options, vecLen int) bool {
	return pl.nVec == vecLen && pl.opt.Scheme == opt.Scheme && pl.opt.VectorW == opt.VectorW &&
		slices.Equal(pl.layout.Dims, l.Dims) && slices.Equal(pl.sel, sel)
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
//	fingerprint: the gfp recorded in pl, the plan its cache holds
//	for this local key and that passed the exact check of
//	Plan.compiledFor; zero when it has none.
//
// Every rank then locally folds the sum word 2 WOULD have if every
// rank held a plan compiled under exactly this gfp. The hit/miss
// decision compares the two sums — both collective outputs — so all
// ranks decide identically by construction: a shared cache caught
// mid-fill by another machine's compile, or a rank whose key collided
// with another mask's, skews word 2 and the whole machine recompiles
// together, never deadlocking on a partial rank set. A hit therefore
// means every rank holds a plan compiled for exactly its own call,
// under a gfp that matches; the sums can only fake that by a 2^-64
// collision of the seeded fingerprints, and one that fakes unanimity
// against an empty slot panics rather than desyncing.
func planLookup(p transport.Endpoint, cache *PlanCache, localFP uint64, pl *Plan, algo comm.PRSAlgorithm) (uint64, *Plan) {
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
	gfp := uint64(tot[0])
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
	if len(m) != l.LocalSize() {
		return nil, fmt.Errorf("pack: local mask %d, layout needs %d", len(m), l.LocalSize())
	}
	if !opt.Scheme.known() {
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	return compilePlan(p, l, mask.Bits(m), opt, -1)
}

// compilePlan compiles the call's mask bitset sel, which the plan then
// owns.
func compilePlan(p transport.Endpoint, l *dist.Layout, sel []uint64, opt Options, vecLen int) (*Plan, error) {
	pl, err := rankPlan(p, l, sel, opt, vecLen, false)
	if err != nil {
		return nil, err
	}
	pl.opt.Plans = nil      // a plan must not retain the cache that holds it
	p.Charge(l.LocalSize()) // one read per mask element: the bitset pack
	return pl, nil
}

// rankPlan runs the ranking collective over the call's mask bitset sel
// and derives the call's plan: the vector distribution of Size
// elements, or of vecLen when it is not -1 (PackVector's VECTOR length,
// UNPACK's N'), and the segment counts. keepRecords keeps the simple
// storage scheme's per-element records, with their charges, for a cold
// SSS call; the segment walks read only the slice arrays.
func rankPlan(p transport.Endpoint, l *dist.Layout, sel []uint64, opt Options, vecLen int, keepRecords bool) (*Plan, error) {
	rnk, err := ranking.RankBits(p, l, sel, opt.rankingOptions(keepRecords))
	if err != nil {
		return nil, err
	}
	size := rnk.Size
	if vecLen >= 0 {
		if size > vecLen {
			return nil, fmt.Errorf("pack: vector too short: %d < Size=%d", vecLen, size)
		}
		size = vecLen
	}
	vec, err := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	return &Plan{layout: l, opt: opt, nVec: vecLen, vec: vec, rnk: rnk, sel: sel, counts: segmentCounts(rnk, vec)}, nil
}

// collectBits writes the next len(out) selected elements of a, in
// local order, to out. The walk visits each set bit once
// (bits.TrailingZeros64 finds it, and word &= word-1 clears it), so the
// per-element cost does not depend on the gaps between selected
// elements. It resumes at word wi, whose unvisited bits are word, and
// returns its new position; (-1, 0) starts it at the first element.
// The loop is spelled out here, with no helper call per element
// (DESIGN §4c).
func collectBits[T any](out, a []T, sel []uint64, wi int, word uint64) (int, uint64) {
	for k := range out {
		for word == 0 {
			wi++
			word = sel[wi]
		}
		out[k] = a[wi<<6|bits.TrailingZeros64(word)]
		word &= word - 1
	}
	return wi, word
}

// placeBits is collectBits' inverse: it writes data to a at the offsets
// of the next len(data) selected elements of sel, resuming the walk at
// (wi, word) and returning its new position. Running out of selected
// elements means the ranking and the mask disagree; it panics with an
// internal error rather than reading past the bitset.
func placeBits[T any](a []T, sel []uint64, wi int, word uint64, data []T) (int, uint64) {
	for _, d := range data {
		for word == 0 {
			if wi++; wi == len(sel) {
				panic(fmt.Sprintf("pack: internal error: placement ran out of selected elements (%d words)", len(sel)))
			}
			word = sel[wi]
		}
		a[wi<<6|bits.TrailingZeros64(word)] = d
		word &= word - 1
	}
	return wi, word
}

// PlanPack executes a compiled plan as PACK (the explicit two-step
// API: compile once with CompilePlan, execute per call with no
// per-call ranking or cache negotiation at all).
func PlanPack[T any](p transport.Endpoint, pl *Plan, a []T) (*Result[T], error) {
	if pl.nVec >= 0 {
		return nil, fmt.Errorf("pack: plan was compiled with a VECTOR length; execute it through PackVector's transparent cache path")
	}
	if len(a) != pl.layout.LocalSize() {
		return nil, fmt.Errorf("pack: local array %d, plan's layout needs %d", len(a), pl.layout.LocalSize())
	}
	return execPackPlan(p, pl, a, nil, nil)
}

// PlanUnpack executes a compiled plan as UNPACK against the plan's
// vector distribution (N' = the plan's vector size).
func PlanUnpack[T any](p transport.Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	if pl.opt.Scheme == SchemeCMS {
		return nil, errUnpackCMS
	}
	if len(field) != pl.layout.LocalSize() {
		return nil, fmt.Errorf("unpack: local field %d, plan's layout needs %d", len(field), pl.layout.LocalSize())
	}
	if want := pl.vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, plan's distribution gives %d", len(v), want)
	}
	return execUnpackPlan(p, pl, v, field, nil), nil
}

// callPlan returns the plan a PACK or UNPACK call executes and its
// charge policy: with a plan cache, the cached plan (compiled on a
// miss) under the bulk-copy charges (nil); without one, a plan ranked
// for this call alone, under its scheme's charges.
func callPlan(p transport.Endpoint, l *dist.Layout, sel []uint64, opt Options, vecLen int) (*Plan, *coldScan, error) {
	if opt.Plans != nil {
		pl, err := cachedPlan(p, l, sel, opt, vecLen)
		return pl, nil, err
	}
	pl, err := rankPlan(p, l, sel, opt, vecLen, opt.Scheme == SchemeSSS)
	return pl, newColdScan(l, sel, opt), err
}

// cachedPlan is the front half of the transparent cache path:
// fingerprint the call, check the plan its key finds, agree on hit or
// miss with the whole machine, and compile on a miss.
func cachedPlan(p transport.Endpoint, l *dist.Layout, sel []uint64, opt Options, vecLen int) (*Plan, error) {
	cache := opt.Plans
	fp := planFingerprint(cache.seed, l, sel, opt, vecLen)
	p.Charge(l.LocalSize()/64 + 1) // mask hashing and checking, one op per 64-element word
	pl := cache.get(fp, p.Rank())
	if pl != nil && !pl.compiledFor(l, sel, opt, vecLen) {
		pl = nil // another call's plan under this key: the machine misses
	}
	gfp, pl := planLookup(p, cache, fp, pl, opt.PRS)
	if pl == nil {
		var err error
		pl, err = compilePlan(p, l, sel, opt, vecLen)
		if err != nil {
			return nil, err
		}
		pl.gfp = gfp
		cache.put(fp, p.Rank(), pl)
	}
	return pl, nil
}
