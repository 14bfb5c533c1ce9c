package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads this benchmark reports match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// A port of CPython's exclusive method, integer arithmetic included.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the percentiles the tail rule may report, highest
// first.
var tailPercentiles = []float64{99, 90, 75, 50}

// tail applies the reporting rule for latencies: the highest percentile
// with at least ten samples beyond it, with the sample count. want caps the
// percentile (90 asks for p90 or lower). ok is false when not even the
// median has ten samples beyond it; the value is then the plain median.
func tail(xs []float64, want float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		beyond := float64(n) * (1 - p/100)
		if beyond >= 10-1e-9 {
			return p, quantile(xs, p/100), n, true
		}
	}
	return 50, median(xs), n, false
}
