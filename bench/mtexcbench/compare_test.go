package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := bound{Name: "round_s", Better: "lower", Bound: 0.10}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"same", []float64{4.0, 4.1, 4.2}, []float64{4.1, 4.2, 4.3}, lower, "same"},
		{"worse", []float64{4.0, 4.1, 4.2}, []float64{4.6, 4.7, 4.8}, lower, "worse"},
		{"better", []float64{4.6, 4.7, 4.8}, []float64{4.0, 4.1, 4.2}, lower, "better"},
		{"higher is better", []float64{4.0, 4.1, 4.2}, []float64{4.6, 4.7, 4.8}, higher, "better"},
		{"higher: worse", []float64{4.6, 4.7, 4.8}, []float64{4.0, 4.1, 4.2}, higher, "worse"},
		// A's quartiles span ~25% of its median: too wide to call.
		{"wide", []float64{3.5, 4.0, 4.1, 4.5, 5.0}, []float64{4.0, 4.1, 4.2, 4.2, 4.3}, lower, "unresolved"},
		// Just as wide, but every run of B beats every run of A.
		{"wide but separated", []float64{4.25, 4.3, 4.35, 4.9, 5.5}, []float64{4.0, 4.1, 4.2, 4.2, 4.2}, lower, "same"},
		// Worse beyond the bound is reported even when noisy.
		{"worse and wide", []float64{3.0, 4.0, 4.1, 4.2, 5.0}, []float64{5.0, 5.5, 6.0, 6.5, 7.0}, lower, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressionsAndFailures(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(spec, benchmarkSpec{EndToEnd: []bound{{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.1}}}); err != nil {
		t.Fatal(err)
	}
	write := func(name string, failed int, rounds ...float64) string {
		p := filepath.Join(dir, name)
		r := result{Workloads: []workloadResult{{Name: "exact-fig5", Attempted: 32, Failed: failed,
			Metrics: map[string]samples{"round_s": {"s", rounds}}}}}
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", 0, 4.0, 4.1, 4.2)
	for _, c := range []struct {
		name      string
		other     string
		regressed bool
		verdict   string
	}{
		{"same", write("same.json", 0, 4.1, 4.1, 4.2), false, "same"},
		{"slower", write("slow.json", 0, 5.0, 5.1, 5.2), true, "worse"},
		{"failing", write("fail.json", 1, 4.1, 4.1, 4.2), true, "failed cells rose"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(base, c.other, spec, &out)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: regressed = %t, output:\n%s", c.name, regressed, out.String())
		}
	}
}
