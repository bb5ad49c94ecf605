//go:build !race

package pack

import (
	"runtime"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// The guard below is built without the race detector only: under
// -race, sync.Pool deliberately drops a random quarter of the buffers
// put back (to expose code that relies on getting them again), so the
// bytes a round trip allocates there say nothing about the pool.

// TestRoundTripAllocatesOnlyResults is the allocation guard of the
// message pool: in steady state, a P=2 CMS PACK + CSS UNPACK round trip
// on the real backend (2^16 elements, CYCLIC(64), density 0.5)
// allocates its two result arrays per rank (the packed vector and the
// unpacked array, 768 KiB together) plus at most 384 KiB. Measured with
// the collector off, that rest is about 180 KiB: the ranking's slice
// and prefix-sum arrays (about 100 KiB), the segment headers and
// request lists, the mask bitsets and the machine's own bookkeeping.
// Only peer-bound data travels in message buffers (a rank's own
// segments and runs skip them), so fresh buffers, one per peer for
// PACK's data and one per requesting peer for UNPACK's replies, would
// add the peer-bound half of the packed elements twice more (about
// 256 KiB). The figure is bytes allocated per round trip
// over many round trips, so collections during the measurement, each
// of which can empty the pool once, move it by tens of KiB at most.
func TestRoundTripAllocatesOnlyResults(t *testing.T) {
	const n, rounds, slack = 1 << 16, 64, 384 << 10
	l := dist.MustLayout(dist.Dim{N: n, P: 2, W: 64})
	gen := mask.NewRandom(0.5, 3, n)
	a, mLocals := make([][]int, 2), make([][]bool, 2)
	for r := range a {
		a[r] = make([]int, l.LocalSize())
		for i := range a[r] {
			a[r][i] = r*n + i
		}
		mLocals[r] = mask.FillLocal(l, r, gen)
	}
	m, err := transport.New(transport.BackendReal, sim.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resultBytes := make([]int, 2)
	body := func(p transport.Endpoint) {
		r := p.Rank()
		pr, err := Pack(p, l, a[r], mLocals[r], Options{Scheme: SchemeCMS})
		if err != nil {
			panic(err)
		}
		ur, err := Unpack(p, l, pr.V, pr.Ranking.Size, mLocals[r], a[r], Options{Scheme: SchemeCSS})
		if err != nil {
			panic(err)
		}
		resultBytes[r] = 8 * (cap(pr.V) + cap(ur.A))
	}
	for range 4 { // fill the pool
		if err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		if err := m.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := int(after.TotalAlloc-before.TotalAlloc) / rounds
	results := resultBytes[0] + resultBytes[1]
	if perRound > results+slack {
		t.Fatalf("a round trip allocates %d B: %d B of results plus %d B, more than the %d B slack (GCs during the measurement: %d)",
			perRound, results, perRound-results, slack, after.NumGC-before.NumGC)
	}
	t.Logf("a round trip allocates %d B: %d B of results plus %d B", perRound, results, perRound-results)
}
