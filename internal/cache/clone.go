package cache

// Clone forks the cache copy-on-write: tags, LRU stamps, dirty bits
// and statistics all carry over, but the line arrays stay shared
// until either side's first mutating access privatizes its copy
// (privatize). Fork cost is therefore O(1) in the cache size.
func (c *Cache) Clone() *Cache {
	n := *c
	c.cowShared = true
	n.cowShared = true
	return &n
}

// privatize rebuilds the set slices over a fresh backing array,
// unsharing the line storage from any clone. Called by every mutating
// path before it touches a line.
//
//mtexc:coldpath
func (c *Cache) privatize() {
	assoc := uint64(c.cfg.Assoc)
	backing := make([]line, uint64(len(c.sets))*assoc)
	sets := make([][]line, len(c.sets))
	for i := range c.sets {
		sets[i] = backing[uint64(i)*assoc : (uint64(i)+1)*assoc]
		copy(sets[i], c.sets[i])
	}
	c.sets = sets
	c.cowShared = false
}

// Clone returns a deep copy of the L2 domain: the L2 cache (forked
// copy-on-write), the memory-bus reservation and the MSHRs.
func (d *L2Domain) Clone() *L2Domain {
	n := *d
	n.L2 = d.L2.Clone()
	n.mshr2 = cloneMSHR(d.mshr2)
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
	n.mshrD = cloneMSHR(h.mshrD)
	n.mshrI = cloneMSHR(h.mshrI)
	return &n
}

func cloneMSHR(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	// Each key is copied once; map visit order cannot affect the
	// resulting register file.
	for k, v := range m {
		c[k] = v
	}
	return c
}
