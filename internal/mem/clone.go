package mem

// Clone forks the physical memory copy-on-write: the clone references
// the same frame arrays, and both sides mark every frame shared so
// the first write to a frame — from either side — privatizes it
// (wframe). Writes through either copy are therefore invisible to the
// other, at a fork cost proportional to the frame count rather than
// the byte count. Physical addresses are preserved exactly (same
// frame numbers, same bump pointer), which is what lets page tables —
// whose entries name physical frames — be shared by value between a
// machine and its clone.
//
// Clone mutates the receiver's sharing state (never its contents):
// raw frame pointers obtained from Frame before the clone must be
// re-fetched before writing through them.
func (p *Physical) Clone() *Physical {
	c := &Physical{
		frames:   make(map[uint64]*[FrameSize]byte, len(p.frames)),
		first:    p.first,
		nextFree: p.nextFree,
	}
	// Each key is aliased once; map visit order cannot affect the
	// resulting map.
	for fn, f := range p.frames {
		c.frames[fn] = f
	}
	if len(p.frames) > 0 {
		// Privatization state is per-copy: each side tracks which
		// frames it has unshared, independent of further clones.
		p.cowing, p.priv = true, nil
		c.cowing, c.priv = true, nil
	}
	return c
}
