package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// ⌈p·n/100⌉ within 1..n, computed so that 99.9 % of 10 000 is 9 990 and not
// one more through binary rounding.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a timing may be reported at besides its
// median, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// highestPercentile picks the highest rung of tailLadder that still has at
// least ten samples beyond it (the choosing-metrics rule), or 0 when even
// p90 has fewer: then only the median is reported.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns vs in ascending order without touching the caller's
// slice.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// so the spreads printed here are the ones the driver will compute.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, q2, _ := quartiles(sortedCopy(vs))
	return q2
}

// spread is the run-to-run summary of one (metric, workload) pair.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vs []float64) spread {
	q1, q2, q3 := quartiles(sortedCopy(vs))
	return spread{N: len(vs), Median: q2, Q1: q1, Q3: q3}
}

// relIQR is the interquartile distance as a share of the median.
func (s spread) relIQR() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
