package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs) from Python 3.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8}, 2.25, 6, 8.75},
		{[]float64{4.0, 4.2, 4.1, 5.9, 4.05, 4.3}, 4.0375, 4.15, 4.7},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := p90(seq(100)); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %g, %t; want 90, true", v, ok)
	}
	if _, ok := p90(seq(99)); ok {
		t.Error("p90 of 99 samples leaves 9 beyond it and must be unresolved")
	}
	if _, ok := p90(nil); ok {
		t.Error("p90 of no samples must be unresolved")
	}
}
