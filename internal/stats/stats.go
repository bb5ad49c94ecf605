// Package stats implements the small statistical toolkit cmd/packdiff
// needs to compare repo-benchmark runs: the quartile summary of one
// side's runs of a metric, and a Mann–Whitney U significance test for
// deciding whether two sets of runs plausibly come from the same
// distribution (benchstat-style, suited to the few runs a benchmark
// comparison can afford).
//
// Virtual times never come through here — they are exact replays of
// the cost model and are compared bit-for-bit (see cmd/packdiff). This
// package exists for measured figures, which are genuinely noisy.
package stats

import (
	"math"
	"sort"
)

// Summary describes one metric's runs by order statistics, without
// assuming normality: Median is the location, Q1 and Q3 bound the
// middle half of the runs, and Min and Max the whole set.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// IQR is the interquartile range Q3 - Q1.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// Summarize computes the Summary of xs. It copies the input (callers
// keep their run order) and returns the zero Summary for an empty
// slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs (q in [0,1]) with linear
// interpolation between order statistics (the "R-7" rule spreadsheet
// users expect). It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
