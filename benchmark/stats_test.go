package main

import (
	"math"
	"testing"
)

// The rule asks for at least ten samples beyond the reported percentile;
// the harness keeps twenty (tailSamples).
func TestTailPercentileKeepsSamplesBeyond(t *testing.T) {
	if tailSamples < 10 {
		t.Fatalf("tailSamples = %d, the rule needs at least 10", tailSamples)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2000, 0.99}, {1999, 0.95}, {400, 0.95}, {399, 0.90}, {200, 0.90}, {199, 0.75}, {80, 0.75}, {79, 0.5}, {1, 0.5},
	} {
		if got := tailPercentile(c.n, 0.99); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailPercentile(5000, 0.95); got != 0.95 {
		t.Errorf("tailPercentile never exceeds the percentile asked for: got %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.125: 15, 0.99: 49.6} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4):
// for 1..10 that is [2.75, 5.5, 8.25], so IQR/median is exactly 1.
func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	if got := iqrSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if got, want := iqrSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
}

func TestMaxPairwiseRel(t *testing.T) {
	if got := maxPairwiseRel([]float64{100, 110, 105}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("maxPairwiseRel = %v, want 0.10", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(x float64) []float64 { return []float64{x, x * 1.001, x * 0.999, x * 1.002, x * 0.998} }
	for _, c := range []struct {
		name     string
		old, new []float64
		want     verdict
	}{
		{"flat", steady(100), steady(101), within},
		{"regressed", steady(100), steady(120), worse},
		{"improved", steady(100), steady(80), better},
		{"noisy overlap", []float64{80, 100, 120, 140, 90}, []float64{85, 100, 125, 135, 95}, unresolved},
		{"noisy but every new run wins", []float64{80, 100, 120, 140, 90}, []float64{50, 60, 70, 40, 75}, better},
	} {
		if got, _ := judge(c.old, c.new, 0.10); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}
