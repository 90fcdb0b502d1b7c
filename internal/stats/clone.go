package stats

// cloneInto copies the histogram into dst, reusing its bucket map and
// dense array. The sorted-key cache is dropped; it rebuilds lazily on
// the next percentile query.
func (h *Histogram) cloneInto(dst *Histogram) *Histogram {
	if dst == nil {
		dst = new(Histogram)
	}
	buckets, dense := dst.buckets, dst.dense
	if buckets == nil {
		buckets = make(map[int64]uint64, len(h.buckets))
	} else {
		clear(buckets)
	}
	*dst = *h
	// Each key is copied once; map visit order cannot affect the
	// resulting buckets.
	for k, v := range h.buckets {
		buckets[k] = v
	}
	dst.buckets = buckets
	if h.dense != nil {
		dst.dense = append(dense[:0], h.dense...)
	}
	dst.sorted = nil
	return dst
}

// CloneInto returns a deep copy of the registry: every counter and
// histogram is duplicated and the first-use registration order — which
// determines rendered output — is preserved exactly. dst, when
// non-nil, is a registry no one uses any more: it is overwritten, and
// its counters and histograms are reused by name. Cached handles
// (CachedCounter, CachedHistogram) are not part of the Set; holders
// must take fresh handles against the clone.
func (s *Set) CloneInto(dst *Set) *Set {
	if dst == nil {
		dst = &Set{
			counters: make(map[string]*Counter, len(s.counters)),
			hists:    make(map[string]*Histogram, len(s.hists)),
		}
	}
	for _, name := range dst.order {
		if _, ok := s.counters[name]; !ok {
			delete(dst.counters, name)
		}
		if _, ok := s.hists[name]; !ok {
			delete(dst.hists, name)
		}
	}
	dst.order = append(dst.order[:0], s.order...)
	for name, ctr := range s.counters {
		if cc := dst.counters[name]; cc != nil {
			*cc = *ctr
		} else {
			cc := *ctr
			dst.counters[name] = &cc
		}
	}
	for name, h := range s.hists {
		dst.hists[name] = h.cloneInto(dst.hists[name])
	}
	return dst
}
