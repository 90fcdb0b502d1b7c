package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	s := NewSet()
	c := s.Counter("cycles")
	c.Inc()
	c.Add(9)
	if s.Get("cycles") != 10 {
		t.Errorf("cycles = %d, want 10", s.Get("cycles"))
	}
	if s.Counter("cycles") != c {
		t.Error("Counter did not return the same instance")
	}
	if s.Get("missing") != 0 {
		t.Error("missing counter nonzero")
	}
}

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram("h")
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 5 {
		t.Errorf("mean = %v, want 5", h.Mean())
	}
	if math.Abs(h.StdDev()-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", h.StdDev())
	}
	if h.Min() != 2 || h.Max() != 9 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got != 4 {
		t.Errorf("p50 = %d, want 4", got)
	}
	if got := h.Percentile(100); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("e")
	if h.Mean() != 0 || h.StdDev() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram returns nonzero summary")
	}
}

// TestPercentileCacheInvalidation pins the sorted-keys cache: observing
// a new value after a Percentile call must invalidate it, while
// re-observing an existing bucket must keep the cached order usable.
func TestPercentileCacheInvalidation(t *testing.T) {
	h := NewHistogram("c")
	h.Observe(10)
	h.Observe(20)
	if got := h.Percentile(50); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	h.Observe(20) // existing bucket: cache stays valid
	if got := h.Percentile(50); got != 20 {
		t.Errorf("p50 after reweight = %d, want 20", got)
	}
	h.Observe(1) // new bucket: cache must rebuild
	if got := h.Percentile(25); got != 1 {
		t.Errorf("p25 after new bucket = %d, want 1", got)
	}
	if got := h.Percentile(100); got != 20 {
		t.Errorf("p100 = %d, want 20", got)
	}
}

func TestSetStringHistogramPercentiles(t *testing.T) {
	s := NewSet()
	h := s.Histogram("lat")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	out := s.String()
	for _, want := range []string{"p50=50", "p95=95", "p99=99", "sd="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestSetEach(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(1)
	s.Histogram("b").Observe(2)
	s.Counter("c").Add(3)
	var order []string
	s.Each(func(name string, c *Counter, h *Histogram) {
		order = append(order, name)
		switch name {
		case "a", "c":
			if c == nil || h != nil {
				t.Errorf("%s not reported as counter", name)
			}
		case "b":
			if h == nil || c != nil {
				t.Errorf("%s not reported as histogram", name)
			}
		}
	})
	if strings.Join(order, ",") != "a,b,c" {
		t.Errorf("Each order = %v", order)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Counter("first").Add(1)
	s.Histogram("second").Observe(5)
	out := s.String()
	if !strings.Contains(out, "first") || !strings.Contains(out, "second") {
		t.Errorf("String() missing entries:\n%s", out)
	}
	if strings.Index(out, "first") > strings.Index(out, "second") {
		t.Error("registration order not preserved")
	}
}

// TestDenseHistMatchesMap: a dense-bucketed histogram renders exactly
// like a map-only one, for samples inside and outside the dense range,
// through Merge and Clone, and whether the handle binds a fresh
// histogram or one a cloned set already holds.
func TestDenseHistMatchesMap(t *testing.T) {
	samples := []int64{0, 3, 3, 7, 8, 9, 100, -4, 5, 5, 5, 8, 0, 64}
	plain, dense := NewSet(), NewSet()
	ph := plain.CachedHist("h")
	dh := dense.CachedDenseHist("h", 9)
	for _, v := range samples {
		ph.Observe(v)
		dh.Observe(v)
	}
	if got, want := dense.String(), plain.String(); got != want {
		t.Fatalf("dense histogram renders differently:\n%s\n--\n%s", got, want)
	}

	// Merge both into a map-only and a dense histogram.
	for _, into := range []*Histogram{NewHistogram("m"), {Name: "m", buckets: map[int64]uint64{}, dense: make([]uint64, 4)}} {
		into.Merge(mustHist(t, plain, "h"))
		into.Merge(mustHist(t, dense, "h"))
		for _, p := range []float64{0, 10, 50, 90, 100} {
			if got, want := into.Percentile(p), mustHist(t, plain, "h").Percentile(p); got != want {
				t.Errorf("merged p%v = %d, want %d", p, got, want)
			}
		}
		if into.Count() != 2*uint64(len(samples)) {
			t.Errorf("merged count %d", into.Count())
		}
	}

	// A clone's handle binds the cloned histogram, dense array and all.
	c := dense.CloneInto(nil)
	ch := c.CachedDenseHist("h", 9)
	ch.Observe(2)
	ph.Observe(2)
	if got, want := c.String(), plain.String(); got != want {
		t.Fatalf("cloned dense histogram renders differently:\n%s\n--\n%s", got, want)
	}
	if mustHist(t, dense, "h").Count() != uint64(len(samples)) {
		t.Fatal("clone observation leaked into original")
	}
}

func mustHist(t *testing.T, s *Set, name string) *Histogram {
	t.Helper()
	h, ok := s.Hist(name)
	if !ok {
		t.Fatalf("no histogram %q", name)
	}
	return h
}
