package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so figures printed here match the
// spread computed over a set of runs. One value gives itself three
// times; no values give NaNs.
func quartiles(xs []float64) [3]float64 {
	nan := math.NaN()
	switch len(xs) {
	case 0:
		return [3]float64{nan, nan, nan}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := sorted(xs)
	m := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		q[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
