package pack

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// sliceGeom is the references' slice arithmetic: dimension 0's local
// extent, block size and tile count, and the number of slices.
type sliceGeom struct {
	l0, w0, t0, slices int
}

func geomOf(l *dist.Layout) sliceGeom {
	return sliceGeom{l0: l.Dims[0].L(), w0: l.Dims[0].W, t0: l.Dims[0].T(), slices: l.Slices()}
}

// refCollectSlice is the compact schemes' second slice scan as it was
// first written: one branch per element and an early exit. It stays as
// the reference the bitset compose is compared against.
func refCollectSlice[T any](p transport.Endpoint, g sliceGeom, a []T, m []bool, slice, count int, whole bool, buf []T) []T {
	base := ranking.SliceBase(slice, g.l0, g.w0, g.t0)
	found := 0
	scanned := 0
	for i := 0; i < g.w0; i++ {
		scanned++
		if m[base+i] {
			buf = append(buf, a[base+i])
			found++
			if found == count && !whole {
				break
			}
		}
	}
	p.Charge(scanned + count)
	return buf
}

// refPlaceIntoSlice is UNPACK's CSS placement rescan of one segment as
// it was first written, kept as the reference of the bitset placement.
func refPlaceIntoSlice[T any](p transport.Endpoint, g sliceGeom, a []T, m []bool, slice, skip, count int, data []T, whole bool) int {
	base := ranking.SliceBase(slice, g.l0, g.w0, g.t0)
	seen := 0
	written := 0
	scanned := 0
	for i := 0; i < g.w0; i++ {
		scanned++
		if m[base+i] {
			if seen >= skip && written < count {
				a[base+i] = data[written]
				written++
				if written == count && !whole {
					break
				}
			}
			seen++
			if seen >= skip+count && !whole {
				break
			}
		}
	}
	p.Charge(scanned + count)
	if written != count {
		panic(fmt.Sprintf("pack: internal error: placed %d of %d elements in slice %d", written, count, slice))
	}
	return count
}

// chargeLog is an endpoint for the kernels, which only ever Charge and
// ask their rank: it records the op count of every call, in order, and
// answers rank. Any other method would hit the nil embedded interface
// and panic.
type chargeLog struct {
	transport.Endpoint
	rank int
	ops  []int
}

func (c *chargeLog) Charge(n int) { c.ops = append(c.ops, n) }

func (c *chargeLog) Rank() int { return c.rank }

// nopCharge is the benchmarks' endpoint: Charge is a dynamic call, as
// on a real machine, that does nothing.
type nopCharge struct{ transport.Endpoint }

func (nopCharge) Charge(int) {}

// kernelCase is one local mask of a kernel-equivalence layout, with
// its bitset, the data array, a distinct field array and the slice
// counters PS_c.
type kernelCase struct {
	name     string
	g        sliceGeom
	m        []bool
	sel      []uint64
	a, field []int
	counts   []int
}

// refBits packs a mask into the plan's bitset layout, element i at bit
// i%64 of word i/64, one element at a time.
func refBits(m []bool) []uint64 {
	sel := make([]uint64, (len(m)+63)/64)
	for i, b := range m {
		if b {
			sel[i/64] |= 1 << (i % 64)
		}
	}
	return sel
}

// kernelCases builds the kernel-equivalence grid: W_0 in {1, 3, 64,
// 100} (3 and 100 make slices straddle bitset words), rank 1 and 2,
// random masks at densities 0, 0.1, 0.5, 0.9 and 1, and an "edges"
// mask whose non-empty slices hold only their first or only their last
// element.
func kernelCases() []kernelCase {
	var out []kernelCase
	rng := rand.New(rand.NewSource(5))
	for _, w0 := range []int{1, 3, 64, 100} {
		d0 := dist.Dim{N: 2 * 8 * w0, P: 2, W: w0}
		for _, l := range []*dist.Layout{dist.MustLayout(d0), dist.MustLayout(d0, dist.Dim{N: 6, P: 2, W: 1})} {
			g := geomOf(l)
			n := l.LocalSize()
			masks := map[string][]bool{}
			for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
				m := make([]bool, n)
				for i := range m {
					m[i] = rng.Float64() < density
				}
				masks[fmt.Sprintf("d=%.1f", density)] = m
			}
			edges := make([]bool, n)
			for s := 0; s < g.slices; s += 2 {
				edges[s*w0] = true
				if s+1 < g.slices {
					edges[(s+2)*w0-1] = true
				}
			}
			masks["edges"] = edges
			for name, m := range masks {
				kc := kernelCase{name: fmt.Sprintf("%v/%s", l, name), g: g, m: m, sel: refBits(m), a: make([]int, n), field: make([]int, n), counts: make([]int, g.slices)}
				for i := range kc.a {
					kc.a[i], kc.field[i] = 1000+i, -1-i
				}
				for i, b := range m {
					if b {
						kc.counts[i/w0]++
					}
				}
				out = append(out, kc)
			}
		}
	}
	return out
}

// rankingOf returns the slice arrays a ranking would give a lone
// processor holding the case's mask: PS_c is the slice counters and
// PS_f their exclusive prefix sum.
func (kc kernelCase) rankingOf() *ranking.Result {
	rnk := &ranking.Result{PSc: kc.counts, PSf: make([]int, len(kc.counts))}
	for slice, n := range kc.counts {
		rnk.PSf[slice] = rnk.LocalTrue
		rnk.LocalTrue += n
	}
	rnk.Size = rnk.LocalTrue
	return rnk
}

// refSeg is one segment as the paper's compose loops cut it: skip
// selected elements into its slice, count of them, from rank base, for
// vector owner dst.
type refSeg struct{ slice, dst, skip, count, base int }

// refSegments cuts the case's segments with the reference arithmetic:
// every non-empty slice's ranks (numbered across the local slices, as
// for a lone processor) split at the vector's block boundaries, in
// local order.
func (kc kernelCase) refSegments(vec dist.VectorDist) []refSeg {
	var out []refSeg
	r := 0
	for slice, n := range kc.counts {
		for skip := 0; skip < n; {
			count := min(vec.BlockRunEnd(r)-r, n-skip)
			dst, _ := vec.Owner(r)
			out = append(out, refSeg{slice, dst, skip, count, r})
			skip += count
			r += count
		}
	}
	return out
}

// kernelVecs are the vector distributions the kernel tests cut
// segments with: VectorW 0 (block, rarely a cut) and VectorW 2 (most
// slices split, so skip > 0), both over two owners.
func kernelVecs(t *testing.T, size int) []dist.VectorDist {
	var out []dist.VectorDist
	for _, vw := range []int{0, 2} {
		vec, err := dist.NewVectorDist(size, 2, vw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vec)
	}
	return out
}

// TestCollectSliceMatchesReference pins the cold PACK compose, which
// walks the call's bitset, to the branchy slice scan: under every
// scheme's charge policy, composeSegments must send every owner the
// segment headers the reference cuts, with the data the reference cuts
// from refCollectSlice's output, and book the reference's charges in
// the reference's order: CMS per slice and per segment, CSS per slice
// (its scan with the datum writes, then its rank writes), SSS one datum
// and rank write per record at the end. The composing rank's own
// segments carry no data; their data must be in its result portion at
// the segments' local offsets, so compose runs once as each of the two
// owners. Every case runs under both scan policies and with segments
// cut at VectorW 0 and 2.
func TestCollectSliceMatchesReference(t *testing.T) {
	for _, kc := range kernelCases() {
		rnk := kc.rankingOf()
		for vi, vec := range kernelVecs(t, rnk.Size) {
			segs := kc.refSegments(vec)
			for _, whole := range []bool{false, true} {
				// The messages, and each scheme's reference charges.
				wantHdr, wantData := make([][]reqSeg, 2), make([][]int, 2)
				cms, css, sss := &chargeLog{}, &chargeLog{}, &chargeLog{}
				cms.Charge(kc.g.slices)
				css.Charge(kc.g.slices)
				var collected []int
				for _, sg := range segs {
					if sg.skip == 0 {
						n := kc.counts[sg.slice]
						collected = refCollectSlice(cms, kc.g, kc.a, kc.m, sg.slice, n, whole, nil)
						refCollectSlice(css, kc.g, kc.a, kc.m, sg.slice, n, whole, nil)
						css.Charge(n)
					}
					wantHdr[sg.dst] = append(wantHdr[sg.dst], reqSeg{Base: sg.base, Count: sg.count})
					wantData[sg.dst] = append(wantData[sg.dst], collected[sg.skip:sg.skip+sg.count]...)
					cms.Charge(2)
				}
				sss.Charge(2 * rnk.LocalTrue)
				for _, policy := range []struct {
					scheme Scheme
					want   *chargeLog
				}{{SchemeSSS, sss}, {SchemeCSS, css}, {SchemeCMS, cms}} {
					want := policy.want
					name := fmt.Sprintf("%s vector %d whole=%v %v", kc.name, vi, whole, policy.scheme)
					cs := &coldScan{scheme: policy.scheme, w0: kc.g.w0, sel: kc.sel, whole: whole}
					for me := range 2 {
						got := &chargeLog{rank: me}
						v := make([]int, vec.LocalLen(me))
						send := composeSegments(got, rnk, vec, segmentCounts(rnk, vec), kc.sel, kc.a, v, cs)
						for dst, msg := range send {
							var hdr []reqSeg
							var data []int
							for _, b := range msg {
								hdr, data = b.Segs, b.Data
							}
							if dst == me {
								if data != nil {
									t.Fatalf("%s as %d: the self message carries data %v", name, me, data)
								}
								for _, sg := range hdr {
									_, lo := vec.Owner(sg.Base)
									data = append(data, v[lo:lo+sg.Count]...)
								}
							}
							if !slices.Equal(hdr, wantHdr[dst]) || !slices.Equal(data, wantData[dst]) {
								t.Fatalf("%s as %d to %d: segments %v data %v, reference %v %v", name, me, dst, hdr, data, wantHdr[dst], wantData[dst])
							}
						}
						if !slices.Equal(got.ops, want.ops) {
							t.Fatalf("%s as %d: charged %v, reference %v", name, me, got.ops, want.ops)
						}
					}
				}
			}
		}
	}
}

// TestPlaceIntoSliceMatchesReference pins the cold UNPACK, whose
// requests and placement walk the call's bitset, to the branchy
// placement: requestSegments must request the reference's segments,
// with the reference's charges under CSS and one rank resolve and
// request write per element under SSS, and placeReplies, given each peer's
// reply and its own vector portion, must leave the array
// refPlaceIntoSlice leaves, while the per-segment rescan charges it
// books match the reference's, segment for segment, in the order the
// replies are visited (by owner, then local order). Placement runs once
// as each of the two owners, whose own reply is empty. Segments are cut
// at VectorW 0 and 2, under both scan policies.
func TestPlaceIntoSliceMatchesReference(t *testing.T) {
	for _, kc := range kernelCases() {
		rnk := kc.rankingOf()
		for vi, vec := range kernelVecs(t, rnk.Size) {
			segs := kc.refSegments(vec)
			for _, whole := range []bool{false, true} {
				name := fmt.Sprintf("%s vector %d whole=%v", kc.name, vi, whole)
				want := &chargeLog{}
				ref := slices.Clone(kc.field)
				wantReqs := make([][]reqSeg, 2)
				replies := make([][]int, 2)
				for src := range 2 {
					for _, sg := range segs {
						if sg.dst != src {
							continue
						}
						data := make([]int, sg.count)
						for j := range data {
							data[j] = 1_000_000 + sg.base + j
						}
						refPlaceIntoSlice(want, kc.g, ref, kc.m, sg.slice, sg.skip, sg.count, data, whole)
						wantReqs[src] = append(wantReqs[src], reqSeg{Base: sg.base, Count: sg.count})
						replies[src] = append(replies[src], data...)
					}
				}

				sss := &chargeLog{}
				sssReqs, sssOps := requestSegments(sss, rnk, vec, segmentCounts(rnk, vec), &coldScan{scheme: SchemeSSS, w0: kc.g.w0, sel: kc.sel, whole: whole})
				if want := []int{2 * rnk.LocalTrue}; !slices.Equal(sss.ops, want) || sssOps != nil {
					t.Fatalf("%s SSS: request charges %v and rescans %v, want %v and none", name, sss.ops, sssOps, want)
				}
				got := &chargeLog{}
				reqs, ops := requestSegments(got, rnk, vec, segmentCounts(rnk, vec), &coldScan{scheme: SchemeCSS, w0: kc.g.w0, sel: kc.sel, whole: whole})
				wantOps := []int{kc.g.slices}
				for range segs {
					wantOps = append(wantOps, 2)
				}
				if !slices.Equal(got.ops, wantOps) {
					t.Fatalf("%s: request charges %v, want %v", name, got.ops, wantOps)
				}
				var placeOps []int
				for src := range reqs {
					if !slices.Equal(reqs[src], wantReqs[src]) || !slices.Equal(sssReqs[src], wantReqs[src]) {
						t.Fatalf("%s: requests to %d %v (SSS %v), reference %v", name, src, reqs[src], sssReqs[src], wantReqs[src])
					}
					placeOps = append(placeOps, ops[src]...)
				}
				if !slices.Equal(placeOps, want.ops) {
					t.Fatalf("%s: placement charges %v, reference %v", name, placeOps, want.ops)
				}
				for me := range 2 {
					v := make([]int, vec.LocalLen(me))
					for i := range v {
						v[i] = 1_000_000 + vec.ToGlobal(me, i)
					}
					got := slices.Clone(replies)
					got[me] = nil
					out := slices.Clone(kc.field)
					placeReplies(out, kc.sel, rnk, vec, me, v, got)
					if !slices.Equal(out, ref) {
						t.Fatalf("%s as %d: placed %v, reference %v", name, me, out, ref)
					}
				}
			}
		}
	}
}

// TestPlaceIntoSliceInternalError keeps the consistency check: asking
// the placement walk for more selected positions than the bitset holds
// panics with an internal error instead of reading past the bitset.
func TestPlaceIntoSliceInternalError(t *testing.T) {
	sel := refBits([]bool{true, false, true, false, false, false, false, false})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "internal error") {
			t.Fatalf("recovered %v, want the internal-error panic", r)
		}
	}()
	placeBits(make([]int, 8), sel, -1, 0, []int{7, 8, 9})
}

// TestCollectBitsMatchesCollectSlice pins the bitset collect to the
// slice collect: walking the whole bitset must yield exactly the
// concatenation of refCollectSlice over the non-empty slices, and so
// must collectBits resuming its walk once per segment of
// forEachRankRun, cut at the vector's block boundaries (VectorW 0, and
// 2, which splits most slices).
func TestCollectBitsMatchesCollectSlice(t *testing.T) {
	for _, kc := range kernelCases() {
		var want []int
		buf := make([]int, kc.g.w0)
		for slice, n := range kc.counts {
			if n > 0 {
				want = append(want, refCollectSlice(&chargeLog{}, kc.g, kc.a, kc.m, slice, n, false, buf[:0])...)
			}
		}
		got := make([]int, len(want))
		collectBits(got, kc.a, kc.sel, -1, 0)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: collectBits %v, collectSlice %v", kc.name, got, want)
		}
		rnk := kc.rankingOf()
		for vi, vec := range kernelVecs(t, rnk.Size) {
			got := make([]int, len(want))
			wi, word := -1, uint64(0)
			forEachRankRun(rnk, vec, func(_, _, base, cnt int) {
				wi, word = collectBits(got[base:base+cnt], kc.a, kc.sel, wi, word)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s vector %d: resumed collectBits %v, collectSlice %v", kc.name, vi, got, want)
			}
		}
	}
}

// TestPlaceBitsMatchesPlaceIntoSlice pins the bitset placement to the
// slice placement: the segments of forEachRankRun, cut at the vector's
// block boundaries (VectorW 0, and 2, which splits most slices), are
// placed one at a time by refPlaceIntoSlice and by placeBits resuming
// its walk, and the arrays must agree after every segment.
func TestPlaceBitsMatchesPlaceIntoSlice(t *testing.T) {
	for _, kc := range kernelCases() {
		rnk := kc.rankingOf()
		for vi, vec := range kernelVecs(t, rnk.Size) {
			ref, out := slices.Clone(kc.field), slices.Clone(kc.field)
			wi, word := -1, uint64(0)
			forEachRankRun(rnk, vec, func(slice, _, base, cnt int) {
				data := make([]int, cnt)
				for j := range data {
					data[j] = 1_000_000 + base + j
				}
				refPlaceIntoSlice(&chargeLog{}, kc.g, ref, kc.m, slice, base-rnk.PSf[slice], cnt, data, false)
				wi, word = placeBits(out, kc.sel, wi, word, data)
				if !slices.Equal(out, ref) {
					t.Fatalf("%s vector %d slice %d base %d count %d: placeBits %v, placeIntoSlice %v", kc.name, vi, slice, base, cnt, out, ref)
				}
			})
		}
	}
}

// kernelBench is one benchmark input: a 2^19-element local array (a P=2
// rank of a 2^20-element array) with its mask, bitset and slice
// counters.
type kernelBench struct {
	g        sliceGeom
	m        []bool
	sel      []uint64
	a, field []int
	counts   []int
}

func newKernelBench(w0 int, density float64) kernelBench {
	const n = 1 << 19
	l := dist.MustLayout(dist.Dim{N: 2 * n, P: 2, W: w0})
	kb := kernelBench{g: geomOf(l), m: make([]bool, n), a: make([]int, n), field: make([]int, n), counts: make([]int, l.Slices())}
	rng := rand.New(rand.NewSource(1))
	for i := range kb.m {
		kb.m[i] = rng.Float64() < density
		kb.a[i], kb.field[i] = i, -i
		if kb.m[i] {
			kb.counts[i/w0]++
		}
	}
	kb.sel = refBits(kb.m)
	return kb
}

// benchKernels runs fn over the ladder's grid (W_0 in {1, 64}, density
// 10/50/90%) and reports ns per mask element.
func benchKernels(b *testing.B, fn func(b *testing.B, kb kernelBench)) {
	for _, w0 := range []int{1, 64} {
		for _, density := range []float64{0.1, 0.5, 0.9} {
			kb := newKernelBench(w0, density)
			b.Run(fmt.Sprintf("w0=%d/d=%.1f", w0, density), func(b *testing.B) {
				fn(b, kb)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(kb.m)), "ns/elem")
			})
		}
	}
}

// BenchmarkKernelCollect times the compact schemes' second slice scan
// over one rank: the branchy reference over every non-empty slice,
// against the bitset walk that collects every selected element in
// local order (collectBits, as composeSegments runs it), alone and
// with the stop-early scan length that a cold call charges per slice.
func BenchmarkKernelCollect(b *testing.B) {
	var p transport.Endpoint = nopCharge{}
	b.Run("branchy", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			buf := make([]int, kb.g.w0)
			for b.Loop() {
				for slice, n := range kb.counts {
					if n > 0 {
						refCollectSlice(p, kb.g, kb.a, kb.m, slice, n, false, buf[:0])
					}
				}
			}
		})
	})
	b.Run("bitset", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			out := make([]int, kb.selected())
			for b.Loop() {
				collectBits(out, kb.a, kb.sel, -1, 0)
			}
		})
	})
	b.Run("bitset+scan", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			out := make([]int, kb.selected())
			cs := &coldScan{scheme: SchemeCSS, w0: kb.g.w0, sel: kb.sel}
			for b.Loop() {
				collectBits(out, kb.a, kb.sel, -1, 0)
				for slice, n := range kb.counts {
					if n > 0 {
						p.Charge(cs.scanLen(slice, n, n) + n)
					}
				}
			}
		})
	})
}

// BenchmarkKernelPlace times UNPACK's CSS placement over one rank: the
// reference (a zeroed result, the branchy field pass and one
// refPlaceIntoSlice per non-empty slice) against the bitset path (the
// field copied whole, then one placeBits walk over every selected
// element, as placeReplies runs it for a single owner).
func BenchmarkKernelPlace(b *testing.B) {
	var p transport.Endpoint = nopCharge{}
	b.Run("branchy", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			data := make([]int, kb.g.w0)
			for b.Loop() {
				out := make([]int, len(kb.field))
				for off, sel := range kb.m {
					if !sel {
						out[off] = kb.field[off]
					}
				}
				for slice, n := range kb.counts {
					if n > 0 {
						refPlaceIntoSlice(p, kb.g, out, kb.m, slice, 0, n, data, false)
					}
				}
			}
		})
	})
	b.Run("bitset", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			data := make([]int, len(kb.m))
			for b.Loop() {
				out := slices.Clone(kb.field)
				placeBits(out, kb.sel, -1, 0, data[:kb.selected()])
			}
		})
	})
}

// selected is the number of selected elements of the bench mask.
func (kb kernelBench) selected() int {
	n := 0
	for _, c := range kb.counts {
		n += c
	}
	return n
}
