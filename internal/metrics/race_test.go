package metrics

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMetricsRaceHammer drives one histogram's Observe from concurrent
// goroutines. Correctness here is exact final readings (the atomics
// must not lose updates); run under `go test -race` it also proves the
// histogram is data-race-free.
func TestMetricsRaceHammer(t *testing.T) {
	const (
		workers = 8
		perG    = 5000
	)
	hist := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				hist.Observe(int64(i % 1000))
			}
		}()
	}
	wg.Wait()
	if got := hist.Count(); got != workers*perG {
		t.Errorf("histogram count = %d, want %d", got, workers*perG)
	}
	if got, want := hist.Sum(), int64(workers*(perG/1000)*(999*1000/2)); got != want {
		t.Errorf("histogram sum = %d, want %d", got, want)
	}
}

// TestMetricsMergeDeterminism pins the merge-determinism contract that
// trace.AggSink relies on when real-backend ranks emit concurrently:
// the same multiset of observations, recorded under any partitioning
// across goroutines and any interleaving, gives identical readings.
func TestMetricsMergeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	values := make([]int64, 20000)
	for i := range values {
		values[i] = int64(rng.Intn(1 << 16))
	}
	readings := func(h *Histogram) []int64 {
		out := []int64{h.Count(), h.Sum()}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			out = append(out, h.Quantile(q))
		}
		return out
	}

	ref := NewHistogram()
	for _, v := range values {
		ref.Observe(v)
	}
	want := readings(ref)

	for _, workers := range []int{2, 5, 16} {
		h := NewHistogram()
		shuffled := append([]int64(nil), values...)
		rand.New(rand.NewSource(int64(workers))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var wg sync.WaitGroup
		per := (len(shuffled) + workers - 1) / workers
		for lo := 0; lo < len(shuffled); lo += per {
			part := shuffled[lo:min(lo+per, len(shuffled))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range part {
					h.Observe(v)
				}
			}()
		}
		wg.Wait()
		if got := readings(h); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: readings %v differ from serial reference %v", workers, got, want)
		}
	}
}
