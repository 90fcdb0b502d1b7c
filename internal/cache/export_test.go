package cache

// Probes of cache and hierarchy state that only this package's tests
// use.

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Probe reports whether pa currently hits, without perturbing LRU or
// statistics.
func (c *Cache) Probe(pa uint64) bool {
	tag := pa >> c.shift
	set := c.set(pa)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops the line containing pa if present, reporting
// whether it was dirty.
func (c *Cache) Invalidate(pa uint64) (present, dirty bool) {
	tag := pa >> c.shift
	c.unshare((tag & c.setMask) / blockSets)
	set := c.set(pa)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.valid = false
			return true, l.dirty
		}
	}
	return false, false
}

// Flush invalidates every line, reporting how many dirty lines were
// dropped.
func (c *Cache) Flush() (dirty uint64) {
	for b := range c.blocks {
		c.unshare(uint64(b))
		blk := c.blocks[b]
		for i := range blk {
			if blk[i].valid && blk[i].dirty {
				dirty++
			}
			blk[i].valid = false
		}
	}
	return dirty
}

// Domain returns the hierarchy's L2 sharing domain.
func (h *Hierarchy) Domain() *L2Domain { return h.dom }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// ProbeData reports whether a data reference would hit in the L1D,
// without side effects.
func (h *Hierarchy) ProbeData(pa uint64) bool { return h.L1D.Probe(pa) }
