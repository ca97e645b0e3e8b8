package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending
// slice by nearest rank: the smallest sample with at least q of the
// samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value of xs (the mean of the middle two
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the pass spread of a metric: the distance between the
// first and the third quartile of xs as a share of their median, the
// same statistic the acceptance check applies across runs. Fewer than
// four values have no quartiles; their spread is (max − min) / median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / math.Abs(m)
}

// quantile interpolates the q-quantile of an ascending slice at
// position q·(n+1), as Python's statistics.quantiles does by default.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	i := int(math.Floor(pos))
	switch {
	case i < 0:
		return sorted[0]
	case i >= len(sorted)-1:
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// slope is the least-squares slope of y over x (0 when x is constant).
func slope(x, y []float64) float64 {
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(len(x)), sy/float64(len(y))
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
