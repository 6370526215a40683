package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile.
// The rule is "the highest percentile that has at least ten samples beyond
// it" (choosing-metrics); twenty are kept, so that a run which comes out
// somewhat slower, and pools fewer samples, still reports the same
// percentile — stencil-shm pools 950 to 1300 a run, on either side of the
// 1000 a p99 would need under the bare rule.
const tailSamples = 20

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailPercentile is the highest of want, 0.95, 0.90 and 0.75 that still
// has tailSamples samples beyond it among n, or 0.5. A p99 therefore
// needs 2000 samples; with fewer the reported tail is a lower percentile,
// and the caller prints which.
func tailPercentile(n int, want float64) float64 {
	for _, c := range []struct {
		p     float64
		every int // one sample in this many lies beyond p
	}{{0.99, 100}, {0.95, 20}, {0.90, 10}, {0.75, 4}} {
		if c.p <= want && n >= tailSamples*c.every {
			return c.p
		}
	}
	return 0.5
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (exclusive method) — the driver's
// steadiness rule.
func iqrSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// maxPairwiseRel is the largest |a-b|/min(|a|,|b|) over all pairs — what
// -repeat prints against each bound.
func maxPairwiseRel(v []float64) float64 {
	worst := 0.0
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			base := math.Min(math.Abs(v[i]), math.Abs(v[j]))
			if base == 0 {
				continue
			}
			if d := math.Abs(v[i]-v[j]) / base; d > worst {
				worst = d
			}
		}
	}
	return worst
}
