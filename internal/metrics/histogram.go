// Package metrics holds Histogram, a lock-free log-linear histogram
// with exact quantile extraction. Two readers use it: loadgen's latency
// model, whose quantiles are the deterministic service figures the
// perf gate compares, and trace.AggSink's per-phase message sizes. The
// machines themselves have no metrics output; their one telemetry
// source is the event stream (sim.EventSink), from which every figure
// is derived (DESIGN.md §14).
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram uses log-linear bucketing (the HDR-histogram shape):
// values below histSub land in exact unit buckets, and each power-of-two
// octave above that is split into histSub linear sub-buckets. Relative
// error is therefore bounded by 1/histSub (6.25%) everywhere, and is
// ZERO in the linear region — quantiles over small integer
// observations (queue depths, retry counts) are exact, and latency
// quantiles are exact to the bucket bound, which is what "exact
// p50/p99/p999 extraction" means here: the reported value is a true
// bucket boundary of the recorded distribution, never an interpolated
// fiction.
//
// Observations are clamped to [0, MaxInt64]; each Observe is two
// atomic adds (sum, bucket), so the histogram is lock-free, and the
// same multiset of observations yields the same readings whatever the
// interleaving of concurrent writers.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per octave; also the linear-region width
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	h := 63 - bits.LeadingZeros64(uint64(v)) // index of the top set bit, >= histSubBits
	sub := int((v >> uint(h-histSubBits)) & (histSub - 1))
	return histSub + (h-histSubBits)*histSub + sub
}

// bucketLower is the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	o := (i - histSub) / histSub
	sub := (i - histSub) % histSub
	return int64(histSub+sub) << uint(o)
}

// bucketUpper is the largest value mapping to bucket i.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	o := (i - histSub) / histSub
	lo := bucketLower(i)
	width := int64(1) << uint(o)
	if lo > math.MaxInt64-width {
		return math.MaxInt64
	}
	return lo + width - 1
}

// Histogram records a latency/size distribution into log-linear
// buckets. Observe is safe from concurrent goroutines.
type Histogram struct {
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count is the number of observations so far.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum is the total of all observations so far.
func (h *Histogram) Sum() int64 {
	return h.sum.Load()
}

// Quantile extracts quantile q (in [0,1]) from the current buckets:
// the upper bound of the first bucket whose cumulative count reaches
// rank ceil(q*count). Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}
