package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. Every reported percentile is therefore a measured sample,
// never an interpolation between two.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the nearest-rank median of v without reordering it.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// the spreads -aa prints are the ones the acceptance procedure computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}
