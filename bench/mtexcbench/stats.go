package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// xs with the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spreads printed here match the
// ones a reader computes from the same samples. One sample is its own
// quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th quantile (0 < p <= 1) of
// xs, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[int(math.Ceil(p*float64(len(d))))-1]
}

// p90 returns the 90th percentile of xs and whether it is resolved: at
// least ten samples must lie beyond it, or the tail is too thin to
// report.
func p90(xs []float64) (float64, bool) {
	rank := int(math.Ceil(0.9 * float64(len(xs))))
	return percentile(xs, 0.9), len(xs) > 0 && len(xs)-rank >= 10
}
