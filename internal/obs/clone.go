package obs

import "mtexc/internal/stats"

// CloneInto returns a deep copy of the issue-slot ledger, into dst
// when it is non-nil.
func (a *SlotAccount) CloneInto(dst *SlotAccount) *SlotAccount {
	if dst == nil {
		dst = new(SlotAccount)
	}
	*dst = *a
	return dst
}

// CloneInto returns a deep copy of the recorder feeding its
// histograms into set, which must be (a clone of) the stats registry
// the original fed — the span histograms the original already
// registered live there and the clone continues them. dst, when
// non-nil, is a recorder no one uses any more; its span ring is
// reused.
func (r *MissRecorder) CloneInto(set *stats.Set, dst *MissRecorder) *MissRecorder {
	if dst == nil {
		dst = new(MissRecorder)
	}
	ring := dst.ring
	*dst = *r
	dst.set = set
	dst.ring = append(ring[:0], r.ring...)
	return dst
}

// Clone returns a deep copy of the sampler: epoch position, every
// source's accumulated series and its delta baseline. Sources hold
// closures over the structure they sample, so the caller provides
// rebind, which must return the clone-side reader for each series
// name (registration order and modes carry over unchanged).
func (s *Sampler) Clone(rebind func(name string) func() float64) *Sampler {
	c := &Sampler{
		every:     s.every,
		lastEpoch: s.lastEpoch,
		sources:   make([]*source, len(s.sources)),
	}
	for i, src := range s.sources {
		ns := *src
		ns.fn = rebind(src.name)
		ns.out.Cycles = append([]uint64(nil), src.out.Cycles...)
		ns.out.Values = append([]float64(nil), src.out.Values...)
		c.sources[i] = &ns
	}
	return c
}
