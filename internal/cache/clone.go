package cache

import "slices"

// CloneInto forks the cache copy-on-write: tags, LRU stamps, dirty
// bits and statistics all carry over, but the line blocks stay shared
// until either side's first mutating access to a block copies it
// (unshare). A fork copies one slice header per blockSets sets, and
// afterwards each side copies only the blocks it touches.
//
// dst, when non-nil, is a cache no one uses any more; it is
// overwritten, and when it has c's geometry the blocks it owned
// (copied, never shared) are kept for its own later copies, so a
// recycled cache allocates nothing.
func (c *Cache) CloneInto(dst *Cache) *Cache {
	if dst == nil {
		dst = new(Cache)
	}
	var free [][]line
	if dst.cfg == c.cfg {
		free = dst.free
		for b, blk := range dst.blocks {
			if dst.shared == nil || !dst.shared[b] {
				free = append(free, blk)
			}
		}
	}
	blocks, shared := dst.blocks, dst.shared
	*dst = *c
	dst.blocks = append(blocks[:0], c.blocks...)
	c.shared = markShared(c.shared, len(c.blocks))
	dst.shared = markShared(shared, len(c.blocks))
	dst.free = free
	return dst
}

// markShared marks all n blocks as aliased, reusing s when it is
// large enough.
func markShared(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = true
	}
	return s
}

// own gives the cache a private copy of block b, in a block it owned
// before it was recycled when it has one.
//
//mtexc:coldpath
func (c *Cache) own(b uint64) {
	if n := len(c.free); n > 0 {
		blk := c.free[n-1]
		c.free = c.free[:n-1]
		copy(blk, c.blocks[b])
		c.blocks[b] = blk
	} else {
		c.blocks[b] = slices.Clone(c.blocks[b])
	}
	c.shared[b] = false
}

// CloneInto returns a deep copy of the L2 domain: the L2 cache
// (forked copy-on-write), the memory-bus reservation and the MSHRs.
// dst, when non-nil, is recycled as Cache.CloneInto recycles.
func (d *L2Domain) CloneInto(dst *L2Domain) *L2Domain {
	if dst == nil {
		dst = new(L2Domain)
	}
	l2, mshr := dst.L2, dst.mshr2
	*dst = *d
	dst.L2 = d.L2.CloneInto(l2)
	dst.mshr2 = d.mshr2.cloneInto(mshr)
	return dst
}

// CloneInto returns a deep copy of the hierarchy: all three cache
// levels, the bus reservations, the outstanding-miss registers and
// the statistics. The clone always gets a PRIVATE L2 domain, even
// when the original shared one — cloning a whole topology must clone
// its shared domain once and rebind each hierarchy instead. dst, when
// non-nil, is a hierarchy no one uses any more, recycled as
// Cache.CloneInto recycles.
func (h *Hierarchy) CloneInto(dst *Hierarchy) *Hierarchy {
	if dst == nil {
		dst = new(Hierarchy)
	}
	l1i, l1d, dom, mshrD, mshrI := dst.L1I, dst.L1D, dst.dom, dst.mshrD, dst.mshrI
	*dst = *h
	dst.L1I = h.L1I.CloneInto(l1i)
	dst.L1D = h.L1D.CloneInto(l1d)
	dst.dom = h.dom.CloneInto(dom)
	dst.L2 = dst.dom.L2
	dst.mshrD = h.mshrD.cloneInto(mshrD)
	dst.mshrI = h.mshrI.cloneInto(mshrI)
	return dst
}

// cloneInto copies the register file, into dst's map when it has one.
func (f mshrFile) cloneInto(dst mshrFile) mshrFile {
	done := dst.done
	if done == nil {
		done = make(map[uint64]uint64, len(f.done))
	} else {
		clear(done)
	}
	// Each key is copied once; map visit order cannot affect the
	// resulting register file.
	for k, v := range f.done {
		done[k] = v
	}
	c := f
	c.done = done
	return c
}
