package stats

import (
	"math"
	"testing"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSummarizeGolden(t *testing.T) {
	// Hand-computed on a fixed, unsorted input.
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("N/Min/Max: %+v", s)
	}
	// R-7 quantiles over sorted [1 2 3 4 5]: pos = q*(n-1).
	if !close(s.Q1, 2) || !close(s.Median, 3) || !close(s.Q3, 4) || !close(s.IQR(), 2) {
		t.Fatalf("quartiles: %+v", s)
	}
	// Input order must be preserved (Summarize copies).
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizeEvenCountInterpolates(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 10})
	if !close(s.Median, 2.5) {
		t.Fatalf("median of even count: %v", s.Median)
	}
	// pos 0.75 and 2.25 over sorted [1 2 3 10].
	if !close(s.Q1, 1.75) || !close(s.Q3, 4.75) {
		t.Fatalf("quartiles of even count: %+v", s)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty input: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.IQR() != 0 {
		t.Fatalf("single sample: %+v", s)
	}
	s = Summarize([]float64{2, 2, 2, 2})
	if s.Median != 2 || s.IQR() != 0 || s.Min != 2 || s.Max != 2 {
		t.Fatalf("constant samples: %+v", s)
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{10, 20, 30}
	if Quantile(xs, -1) != 10 || Quantile(xs, 0) != 10 {
		t.Fatal("low quantile clamps to min")
	}
	if Quantile(xs, 1) != 30 || Quantile(xs, 2) != 30 {
		t.Fatal("high quantile clamps to max")
	}
	if !close(Quantile(xs, 0.5), 20) || !close(Quantile(xs, 0.25), 15) {
		t.Fatalf("interpolation: %v %v", Quantile(xs, 0.5), Quantile(xs, 0.25))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("Median")
	}
}

func TestMannWhitneyDisjointSamples(t *testing.T) {
	// All of a below all of b: the most extreme ordering. Exact
	// two-sided p for 5v5 is 2/C(10,5) = 2/252.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 11, 12, 13, 14}
	r := MannWhitneyU(a, b)
	if !r.Exact {
		t.Fatal("small tie-free samples must use the exact test")
	}
	if r.U != 0 {
		t.Fatalf("U = %v, want 0", r.U)
	}
	if !close(r.P, 2.0/252) {
		t.Fatalf("p = %v, want %v", r.P, 2.0/252)
	}
	// Symmetry: swapping the samples flips U but not p.
	r2 := MannWhitneyU(b, a)
	if r2.U != 25 || !close(r2.P, r.P) {
		t.Fatalf("swapped: U=%v p=%v", r2.U, r2.P)
	}
}

func TestMannWhitneyThreeVsThree(t *testing.T) {
	// Classic textbook case: fully separated 3v3 gives two-sided
	// p = 2 * (1/20) = 0.1.
	r := MannWhitneyU([]float64{1, 2, 3}, []float64{4, 5, 6})
	if !r.Exact || !close(r.P, 0.1) {
		t.Fatalf("3v3: %+v", r)
	}
}

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	// Same values on both sides: pure ties, no evidence of difference.
	a := []float64{3, 3, 3, 3, 3}
	r := MannWhitneyU(a, a)
	if r.P != 1 {
		t.Fatalf("identical samples: p = %v, want 1", r.P)
	}
	if r.Exact {
		t.Fatal("tied samples must not claim the exact distribution")
	}
}

func TestMannWhitneyOverlappingSamples(t *testing.T) {
	// Interleaved samples: no real difference, p must be large.
	a := []float64{1, 3, 5, 7, 9}
	b := []float64{2, 4, 6, 8, 10}
	r := MannWhitneyU(a, b)
	if r.P < 0.5 {
		t.Fatalf("interleaved samples flagged significant: %+v", r)
	}
}

func TestMannWhitneyEdgeCases(t *testing.T) {
	if r := MannWhitneyU(nil, []float64{1, 2}); r.P != 1 {
		t.Fatalf("empty a: %+v", r)
	}
	if r := MannWhitneyU([]float64{1, 2}, nil); r.P != 1 {
		t.Fatalf("empty b: %+v", r)
	}
	// n=1 vs n=1: two-sided p can never drop below 1.
	if r := MannWhitneyU([]float64{1}, []float64{100}); r.P != 1 {
		t.Fatalf("1v1: %+v", r)
	}
	// n=1 vs larger sample: p = 2/(m+1) when the singleton is outside.
	r := MannWhitneyU([]float64{0}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !r.Exact || !close(r.P, 0.2) {
		t.Fatalf("1v9: %+v", r)
	}
}

func TestMannWhitneyTiesUseNormalApproximation(t *testing.T) {
	a := []float64{1, 2, 2, 3, 4}
	b := []float64{2, 5, 6, 7, 8}
	r := MannWhitneyU(a, b)
	if r.Exact {
		t.Fatal("ties present: must use the normal approximation")
	}
	if r.P <= 0 || r.P > 1 {
		t.Fatalf("p out of range: %+v", r)
	}
}

func TestMannWhitneyLargeSamplesApproximation(t *testing.T) {
	// Above the exact-DP bound: clearly separated large samples must be
	// strongly significant under the normal approximation.
	var a, b []float64
	for i := 0; i < 25; i++ {
		a = append(a, float64(i))
		b = append(b, float64(i)+1000)
	}
	r := MannWhitneyU(a, b)
	if r.Exact {
		t.Fatal("25v25 exceeds the exact bound")
	}
	if r.P > 1e-6 {
		t.Fatalf("separated large samples: p = %v", r.P)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	// U_a + U_b = n*m, and the two-sided p must not depend on which
	// sample is "first".
	a := []float64{1, 4, 6, 9, 11, 13, 17}
	b := []float64{2, 3, 5, 12, 14, 18, 19}
	ra, rb := MannWhitneyU(a, b), MannWhitneyU(b, a)
	if !ra.Exact || !rb.Exact {
		t.Fatal("expected exact path")
	}
	if !close(ra.U+rb.U, float64(len(a)*len(b))) {
		t.Fatalf("U_a + U_b = %v, want %d", ra.U+rb.U, len(a)*len(b))
	}
	if !close(ra.P, rb.P) {
		t.Fatalf("p asymmetric: %v vs %v", ra.P, rb.P)
	}
	if ra.P <= 0 || ra.P > 1 {
		t.Fatalf("p out of range: %v", ra.P)
	}
}
