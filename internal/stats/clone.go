package stats

// Clone returns a deep copy of the histogram. The sorted-key cache is
// dropped; it rebuilds lazily on the next percentile query.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.buckets = make(map[int64]uint64, len(h.buckets))
	// Each key is copied once; map visit order cannot affect the
	// resulting buckets.
	for k, v := range h.buckets {
		c.buckets[k] = v
	}
	if h.dense != nil {
		c.dense = append([]uint64(nil), h.dense...)
	}
	c.sorted = nil
	return &c
}

// Clone returns a deep copy of the registry: every counter and
// histogram is duplicated and the first-use registration order — which
// determines rendered output — is preserved exactly. Cached handles
// (CachedCounter, CachedHistogram) are not part of the Set; holders
// must take fresh handles against the clone.
func (s *Set) Clone() *Set {
	c := &Set{
		counters: make(map[string]*Counter, len(s.counters)),
		hists:    make(map[string]*Histogram, len(s.hists)),
		order:    append([]string(nil), s.order...),
	}
	for name, ctr := range s.counters {
		cc := *ctr
		c.counters[name] = &cc
	}
	for name, h := range s.hists {
		c.hists[name] = h.Clone()
	}
	return c
}
