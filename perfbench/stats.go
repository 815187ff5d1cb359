package main

import (
	"math"
	"sort"
)

// median is the middle sample of xs, or the mean of the middle two. Unlike
// the nearest-rank p50, it does not jump from one sample to the other when
// two middle values, say two inputs' times, trade places.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// centre summarises repeated timings: the mean of the middle eight
// tenths, and never of fewer than all but the fastest and slowest sample
// once there are three, so that a sample the host stalled does not move
// it. Of what remains, a mean moves less from run to run than a median,
// which jumps from one sample to another: over ten runs of compile-suite,
// scaled to the nominal host, the total compile time spread 0.05 by
// trimmed means, 0.06 by lower quartiles and 0.08 by medians.
func centre(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	if len(s) >= 3 {
		k = max(k, 1)
	}
	return sum(s[k:len(s)-k]) / float64(len(s)-2*k)
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// slope is the least-squares slope of log(y) against log(x): the
// exponent k of a cost that grows as x^k. It needs two distinct x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
