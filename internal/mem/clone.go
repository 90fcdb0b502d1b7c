package mem

// CloneInto forks the physical memory copy-on-write: the clone
// references the same frame arrays, and both sides mark every frame
// shared so the first write to a frame — from either side —
// privatizes it (wframe). Writes through either copy are therefore
// invisible to the other, at a fork cost proportional to the frame
// count rather than the byte count. Physical addresses are preserved
// exactly (same frame numbers, same bump pointer), which is what lets
// page tables — whose entries name physical frames — be shared by
// value between a machine and its clone.
//
// The clone is made in dst when it is non-nil: a memory no one uses
// any more. Its maps are reused, and the frames it owned (wrote or
// created, never shared) are kept for the frames it makes later, so a
// recycled memory allocates none.
//
// CloneInto mutates the receiver's sharing state (never its
// contents): raw frame pointers obtained from Frame before the clone
// must be re-fetched before writing through them.
func (p *Physical) CloneInto(dst *Physical) *Physical {
	if dst == nil {
		dst = &Physical{frames: make(map[uint64]*[FrameSize]byte, len(p.frames))}
	}
	frames, priv, free := dst.frames, dst.priv, dst.free
	// Which frame lands where in the pool cannot matter: every frame
	// taken from it is overwritten whole.
	for fn, f := range frames {
		if !dst.cowing || priv[fn] {
			free = append(free, f)
		}
	}
	clear(frames)
	clear(priv)
	*dst = Physical{frames: frames, priv: priv, free: free, first: p.first, nextFree: p.nextFree}
	// Each key is aliased once; map visit order cannot affect the
	// resulting map.
	for fn, f := range p.frames {
		dst.frames[fn] = f
	}
	if len(p.frames) > 0 {
		// Privatization state is per-copy: each side tracks which
		// frames it has unshared, independent of further clones.
		p.cowing, p.priv = true, nil
		dst.cowing = true
	}
	return dst
}
