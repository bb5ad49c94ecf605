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

// refCollectSlice is collectSlice as it was written before the
// branch-free kernel: one branch per element and an early exit. It stays
// as the reference the kernel is compared against.
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

// refPlaceIntoSlice is placeIntoSlice as it was written before the
// branch-free kernel, kept as its reference.
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

// chargeLog is an endpoint for the kernels, which only ever Charge: it
// records the op count of every call, in order. Any other method would
// hit the nil embedded interface and panic.
type chargeLog struct {
	transport.Endpoint
	ops []int
}

func (c *chargeLog) Charge(n int) { c.ops = append(c.ops, n) }

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

// TestCollectSliceMatchesReference pins the branch-free collectSlice to
// the branchy one on every non-empty slice (the only slices the compose
// functions scan), under both scan policies: same values in the same
// order, and the same charge.
func TestCollectSliceMatchesReference(t *testing.T) {
	for _, kc := range kernelCases() {
		for _, whole := range []bool{false, true} {
			buf := make([]int, kc.g.w0)
			for slice, n := range kc.counts {
				if n == 0 {
					continue
				}
				want, got := &chargeLog{}, &chargeLog{}
				ref := refCollectSlice(want, kc.g, kc.a, kc.m, slice, n, whole, nil)
				out := collectSlice(got, kc.g, kc.a, kc.m, slice, n, whole, buf)
				if !slices.Equal(out, ref) || !slices.Equal(got.ops, want.ops) {
					t.Fatalf("%s whole=%v slice %d: got %v charging %v, reference %v charging %v",
						kc.name, whole, slice, out, got.ops, ref, want.ops)
				}
			}
		}
	}
}

// TestPlaceIntoSliceMatchesReference pins the branch-free placement to
// the branchy one. Each non-empty slice is split into the segments
// UNPACK would request, with the ranks numbered across the local slices
// and cut at the vector's block boundaries: VectorW 0 (block, rarely a
// cut) and VectorW 2 (most slices split, skip > 0). Every call must
// charge the same, and after every slice the arrays must be identical.
func TestPlaceIntoSliceMatchesReference(t *testing.T) {
	for _, kc := range kernelCases() {
		total := 0
		for _, n := range kc.counts {
			total += n
		}
		for _, vw := range []int{0, 2} {
			vec, err := dist.NewVectorDist(total, 2, vw)
			if err != nil {
				t.Fatal(err)
			}
			for _, whole := range []bool{false, true} {
				name := fmt.Sprintf("%s VectorW=%d whole=%v", kc.name, vw, whole)
				ref, out := slices.Clone(kc.field), slices.Clone(kc.field)
				offs := make([]int, kc.g.w0)
				r := 0
				for slice, n := range kc.counts {
					for skip := 0; skip < n; {
						count := min(vec.BlockRunEnd(r)-r, n-skip)
						data := make([]int, count)
						for j := range data {
							data[j] = 1_000_000 + r + j
						}
						want, got := &chargeLog{}, &chargeLog{}
						refPlaceIntoSlice(want, kc.g, ref, kc.m, slice, skip, count, data, whole)
						if placeIntoSlice(got, kc.g, out, kc.m, slice, skip, count, data, whole, offs) != count {
							t.Fatalf("%s slice %d: placeIntoSlice did not return count %d", name, slice, count)
						}
						if !slices.Equal(got.ops, want.ops) {
							t.Fatalf("%s slice %d skip %d count %d: charged %v, reference %v", name, slice, skip, count, got.ops, want.ops)
						}
						skip += count
						r += count
					}
					if !slices.Equal(out, ref) {
						t.Fatalf("%s slice %d: placed %v, reference %v", name, slice, out, ref)
					}
				}
			}
		}
	}
}

// TestPlaceIntoSliceInternalError keeps the consistency check: asking
// for more selected positions than the slice holds panics.
func TestPlaceIntoSliceInternalError(t *testing.T) {
	g := geomOf(dist.MustLayout(dist.Dim{N: 8, P: 1, W: 4}))
	m := []bool{true, false, true, false, false, false, false, false}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "internal error") {
			t.Fatalf("recovered %v, want the internal-error panic", r)
		}
	}()
	placeIntoSlice(&chargeLog{}, g, make([]int, 8), m, 0, 1, 2, []int{7, 8}, false, make([]int, 4))
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

// TestCollectBitsMatchesCollectSlice pins the plan's bitset collect to
// the cold path's slice collect: walking the whole bitset must yield
// exactly the concatenation of collectSlice over the non-empty slices.
func TestCollectBitsMatchesCollectSlice(t *testing.T) {
	for _, kc := range kernelCases() {
		var want []int
		buf := make([]int, kc.g.w0)
		for slice, n := range kc.counts {
			if n > 0 {
				want = append(want, collectSlice(&chargeLog{}, kc.g, kc.a, kc.m, slice, n, false, buf)...)
			}
		}
		got := make([]int, len(want))
		collectBits(got, kc.a, kc.sel)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: collectBits %v, collectSlice %v", kc.name, got, want)
		}
	}
}

// TestPlaceBitsMatchesPlaceIntoSlice pins the plan's bitset placement
// to the cold path's: the segments of forEachRankRun, cut at the
// vector's block boundaries (VectorW 0, and 2, which splits most
// slices), are placed one at a time by placeIntoSlice and by placeBits
// resuming its walk, and the arrays must agree after every segment.
func TestPlaceBitsMatchesPlaceIntoSlice(t *testing.T) {
	for _, kc := range kernelCases() {
		rnk := kc.rankingOf()
		for _, vw := range []int{0, 2} {
			vec, err := dist.NewVectorDist(rnk.Size, 2, vw)
			if err != nil {
				t.Fatal(err)
			}
			ref, out := slices.Clone(kc.field), slices.Clone(kc.field)
			offs := make([]int, kc.g.w0)
			wi, word := -1, uint64(0)
			forEachRankRun(rnk, vec, func(slice, _, base, cnt int) {
				data := make([]int, cnt)
				for j := range data {
					data[j] = 1_000_000 + base + j
				}
				placeIntoSlice(&chargeLog{}, kc.g, ref, kc.m, slice, base-rnk.PSf[slice], cnt, data, false, offs)
				wi, word = placeBits(out, kc.sel, wi, word, data)
				if !slices.Equal(out, ref) {
					t.Fatalf("%s VectorW=%d slice %d base %d count %d: placeBits %v, placeIntoSlice %v", kc.name, vw, slice, base, cnt, out, ref)
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
// (collectSlice over every non-empty slice, as CMS compose runs it),
// branch-free kernel against the branchy reference, and the plan's
// bitset walk over the whole local array (collectBits, as a planned
// PACK runs it).
func BenchmarkKernelCollect(b *testing.B) {
	var p transport.Endpoint = nopCharge{}
	variants := []struct {
		name    string
		collect func(kb kernelBench, slice, n int, buf []int) []int
	}{
		{"branchy", func(kb kernelBench, slice, n int, buf []int) []int {
			return refCollectSlice(p, kb.g, kb.a, kb.m, slice, n, false, buf[:0])
		}},
		{"branchfree", func(kb kernelBench, slice, n int, buf []int) []int {
			return collectSlice(p, kb.g, kb.a, kb.m, slice, n, false, buf)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchKernels(b, func(b *testing.B, kb kernelBench) {
				buf := make([]int, kb.g.w0)
				for b.Loop() {
					for slice, n := range kb.counts {
						if n > 0 {
							v.collect(kb, slice, n, buf)
						}
					}
				}
			})
		})
	}
	b.Run("bitset", func(b *testing.B) {
		benchKernels(b, func(b *testing.B, kb kernelBench) {
			out := make([]int, len(kb.m))
			for b.Loop() {
				collectBits(out, kb.a, kb.sel)
			}
		})
	})
}

// BenchmarkKernelPlace times UNPACK's CSS placement: the field-array
// transfer followed by one placeIntoSlice per non-empty slice (one
// segment each, as under the default block vector). The reference
// variant is the old zeroed result plus branchy field pass and
// placement; the bitset variant places the same segments with the
// plan's placeBits walk.
func BenchmarkKernelPlace(b *testing.B) {
	var p transport.Endpoint = nopCharge{}
	variants := []struct {
		name  string
		place func(kb kernelBench, data []int, offs []int) []int
	}{
		{"branchy", func(kb kernelBench, data []int, _ []int) []int {
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
			return out
		}},
		{"branchfree", func(kb kernelBench, data []int, offs []int) []int {
			out := slices.Clone(kb.field)
			for slice, n := range kb.counts {
				if n > 0 {
					placeIntoSlice(p, kb.g, out, kb.m, slice, 0, n, data, false, offs)
				}
			}
			return out
		}},
		{"bitset", func(kb kernelBench, data []int, _ []int) []int {
			out := slices.Clone(kb.field)
			wi, word := -1, uint64(0)
			for _, n := range kb.counts {
				wi, word = placeBits(out, kb.sel, wi, word, data[:n])
			}
			return out
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchKernels(b, func(b *testing.B, kb kernelBench) {
				data := make([]int, kb.g.w0)
				offs := make([]int, kb.g.w0)
				for b.Loop() {
					v.place(kb, data, offs)
				}
			})
		})
	}
}
