package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a reported percentile must have at least
// this many samples above it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile is the highest percentile on the ladder that keeps at
// least minBeyond samples above it at n samples; 50 when none does.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 80, 90, 95, 98, 99, 99.5, 99.9} {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median of xs (sorted in place); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method, which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
