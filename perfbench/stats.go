package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of sorted-or-not values with
// the "exclusive" method of Python's statistics.quantiles(values, n=4),
// so spreads computed here agree with any external check that uses it.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// mean returns the arithmetic mean; NaN for no values.
func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be in ascending order.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
