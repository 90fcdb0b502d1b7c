package cache

import "slices"

// Clone forks the cache copy-on-write: tags, LRU stamps, dirty bits
// and statistics all carry over, but the line blocks stay shared
// until either side's first mutating access to a block copies it
// (unshare). A fork copies one slice header per blockSets sets, and
// afterwards each side copies only the blocks it touches.
func (c *Cache) Clone() *Cache {
	n := *c
	n.blocks = slices.Clone(c.blocks)
	c.shared = markShared(c.shared, len(c.blocks))
	n.shared = markShared(nil, len(c.blocks))
	return &n
}

// markShared marks all n blocks as aliased, reusing s when it exists.
func markShared(s []bool, n int) []bool {
	if s == nil {
		s = make([]bool, n)
	}
	for i := range s {
		s[i] = true
	}
	return s
}

// own gives the cache a private copy of block b.
//
//mtexc:coldpath
func (c *Cache) own(b uint64) {
	c.blocks[b] = slices.Clone(c.blocks[b])
	c.shared[b] = false
}

// Clone returns a deep copy of the L2 domain: the L2 cache (forked
// copy-on-write), the memory-bus reservation and the MSHRs.
func (d *L2Domain) Clone() *L2Domain {
	n := *d
	n.L2 = d.L2.Clone()
	n.mshr2 = d.mshr2.clone()
	return &n
}

// Clone returns a deep copy of the hierarchy: all three cache levels,
// the bus reservations, the outstanding-miss registers and the
// statistics. The clone always gets a PRIVATE L2 domain, even when
// the original shared one — cloning a whole topology must clone its
// shared domain once and rebind each hierarchy instead.
func (h *Hierarchy) Clone() *Hierarchy {
	n := *h
	n.L1I = h.L1I.Clone()
	n.L1D = h.L1D.Clone()
	n.dom = h.dom.Clone()
	n.L2 = n.dom.L2
	n.mshrD = h.mshrD.clone()
	n.mshrI = h.mshrI.clone()
	return &n
}

func (f mshrFile) clone() mshrFile {
	c := f
	c.done = make(map[uint64]uint64, len(f.done))
	// Each key is copied once; map visit order cannot affect the
	// resulting register file.
	for k, v := range f.done {
		c.done[k] = v
	}
	return c
}
