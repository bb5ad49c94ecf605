package metrics

import (
	"math"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for v := int64(2); v < 1<<30; v = v*3 + 7 {
		vals = append(vals, v, v-1, v+1)
	}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo, hi := bucketLower(i), bucketUpper(i); v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d = [%d,%d]", v, i, lo, hi)
		}
		_ = prev
	}
	// Bucket bounds tile the axis: upper(i)+1 == lower(i+1).
	for i := 0; i < histBuckets-1; i++ {
		if bucketUpper(i)+1 != bucketLower(i+1) {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)", i, bucketUpper(i), i+1, bucketLower(i+1))
		}
	}
	if bucketIndex(math.MaxInt64) != histBuckets-1 {
		t.Fatalf("MaxInt64 maps to bucket %d, want last (%d)", bucketIndex(math.MaxInt64), histBuckets-1)
	}
}

func TestQuantilesExactInLinearRegion(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < histSub; v++ {
		h.Observe(v)
	}
	// 16 observations 0..15: rank(0.5)=8 → value 7 (0-indexed 8th).
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
	if got := h.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
}

func TestQuantileResolutionBound(t *testing.T) {
	h := NewHistogram()
	const v = 123457
	h.Observe(v)
	got := h.Quantile(0.99)
	if got < v || float64(got) > float64(v)*(1+1.0/histSub)+1 {
		t.Errorf("p99 of single observation %d = %d, outside resolution bound", v, got)
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) on empty histogram = %d, want 0", q, got)
		}
	}
	if got := h.Count(); got != 0 {
		t.Errorf("Count on empty histogram = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("Sum on empty histogram = %d, want 0", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := NewHistogram()
	const v = 7 // linear region: every quantile is exactly the value
	h.Observe(v)
	for _, q := range []float64{0, 0.25, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != v {
			t.Errorf("Quantile(%v) of single observation %d = %d, want %d", q, v, got, v)
		}
	}
	if got, want := h.Count(), int64(1); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), int64(v); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
}

func TestQuantileAllMassInOverflowBucket(t *testing.T) {
	// MaxInt64 lands in the final bucket, whose upper bound clamps to
	// MaxInt64 rather than wrapping: every quantile reports that bound.
	h := NewHistogram()
	for i := 0; i < 3; i++ {
		h.Observe(math.MaxInt64)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != math.MaxInt64 {
			t.Errorf("Quantile(%v) with all mass in top bucket = %d, want MaxInt64", q, got)
		}
	}
	if got, want := h.Count(), int64(3); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestObserveNegativeClampsToZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Errorf("Quantile(1) after negative observation = %d, want 0 (clamped)", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("Sum after negative observation = %d, want 0 (clamped)", got)
	}
	if got, want := h.Count(), int64(1); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

// TestEnabledHotPathAllocs pins that Observe does not allocate: it
// runs once per send event in trace.AggSink, on every rank.
func TestEnabledHotPathAllocs(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(99)
	}); n != 0 {
		t.Errorf("Observe allocates: %v allocs/op", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
