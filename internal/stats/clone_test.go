package stats

import "testing"

func TestSetCloneIndependence(t *testing.T) {
	s := NewSet()
	s.Counter("alpha").Add(3)
	s.Histogram("lat").Observe(10)
	s.Counter("beta").Add(7)
	s.Histogram("lat").Observe(20)

	c := s.CloneInto(nil)
	if c.String() != s.String() {
		t.Fatalf("clone renders differently:\n%s\n--\n%s", c.String(), s.String())
	}

	// Mutations on either side stay on that side.
	c.Counter("alpha").Inc()
	c.Histogram("lat").Observe(99)
	if s.Counter("alpha").Value != 3 {
		t.Fatal("clone increment leaked into original")
	}
	if s.Histogram("lat").Count() != 2 {
		t.Fatal("clone observation leaked into original")
	}
	s.Counter("gamma").Inc()
	if c.Get("gamma") != 0 {
		t.Fatal("original registration leaked into clone")
	}
}

func TestSetClonePreservesOrder(t *testing.T) {
	// Rendered output follows first-use order, so a clone created after
	// interleaved registrations must render identically — this is what
	// makes cloned-machine stats byte-comparable.
	s := NewSet()
	for _, name := range []string{"z", "a", "m.sub", "a2"} {
		s.Counter(name).Inc()
	}
	s.Histogram("h1").Observe(1)
	s.Counter("late").Inc()
	if got, want := s.CloneInto(nil).String(), s.String(); got != want {
		t.Fatalf("order not preserved:\n%s\n--\n%s", got, want)
	}
}

func TestHistogramCloneSortedCache(t *testing.T) {
	h := NewHistogram("x")
	for v := int64(0); v < 100; v++ {
		h.Observe(v % 13)
	}
	_ = h.Percentile(0.5) // populate the sorted-key cache
	c := h.cloneInto(nil)
	if c.Percentile(0.5) != h.Percentile(0.5) || c.Mean() != h.Mean() {
		t.Fatal("clone percentiles diverge")
	}
	c.Observe(1000)
	if h.Max() == 1000 {
		t.Fatal("clone observation leaked into original")
	}
}

// TestSetCloneIntoRecycles: cloning into a registry that has run on
// — with counters and histograms the source lacks, or registered in
// another order — yields the source's registry, reusing the spare's
// counter objects by name, and leaves no name the source lacks.
func TestSetCloneIntoRecycles(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(2)
	s.CachedDenseHist("occ", 4).Observe(1)
	s.Counter("b").Inc()
	spare := s.CloneInto(nil)
	spare.Counter("late").Inc()
	spare.Counter("a").Add(40)
	spare.Histogram("lat").Observe(7)
	spare.Histogram("occ").Observe(9)
	a := spare.Counter("a")

	c := s.CloneInto(spare)
	if c != spare || c.Counter("a") != a {
		t.Error("CloneInto did not reuse the spare registry and its counters")
	}
	if got, want := c.String(), s.String(); got != want {
		t.Fatalf("recycled clone renders differently:\n%s\n--\n%s", got, want)
	}
	if _, ok := c.Hist("lat"); ok || c.Get("late") != 0 {
		t.Error("recycled clone kept a statistic the source never registered")
	}
	s.Counter("late").Add(5)
	c.Counter("late").Inc()
	if got, want := s.String(), c.String(); got == want {
		t.Error("clone and source share a counter")
	}
}
