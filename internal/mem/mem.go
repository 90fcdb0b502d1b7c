// Package mem models physical memory as a sparse collection of
// fixed-size frames. Frames are allocated on demand by a bump
// allocator, mirroring a machine whose operating system hands out
// physical pages. All accessors are little-endian.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Frame geometry. 8 KB pages match the Alpha 21164 the paper's
// simulator modelled.
const (
	FrameShift = 13
	FrameSize  = 1 << FrameShift
	frameMask  = FrameSize - 1
)

// Physical is a sparse physical address space. CloneInto produces
// copy-on-write forks, and Borrow shares another memory's frame
// copy-on-write: a shared frame is copied on the first write from a
// clone or a borrower, so a machine that neither clones nor borrows
// pays only a bool check on the write path.
type Physical struct {
	frames   map[uint64]*[FrameSize]byte
	cowing   bool            // any frame not yet privatized may be aliased by a clone or a lender
	priv     map[uint64]bool // frames privatized (or created) since the last CloneInto or the first Borrow
	first    uint64          // the frame the allocator handed out first
	nextFree uint64          // bump pointer for frame allocation, in frame numbers
	// free holds frames a recycled memory owned before CloneInto
	// overwrote it, which it fills instead of allocating.
	free []*[FrameSize]byte
}

// NewPhysical returns an empty physical memory. Frame number zero is
// reserved so that a zero PFN can mean "invalid" in page-table
// entries.
func NewPhysical() *Physical { return NewPhysicalAt(1) }

// NewPhysicalAt returns an empty physical memory whose allocator hands
// out frame next first. A program built into it takes the frame
// numbers it would take built into any memory whose next free frame
// is next, so BorrowAll can lend it to such a memory.
func NewPhysicalAt(next uint64) *Physical {
	return &Physical{
		frames:   make(map[uint64]*[FrameSize]byte),
		first:    next,
		nextFree: next,
	}
}

// AllocFrame reserves the next free physical frame and returns its
// frame number (PFN). The frame's backing store is created lazily on
// first access.
func (p *Physical) AllocFrame() uint64 {
	pfn := p.nextFree
	p.nextFree++
	return pfn
}

// AllocFrames reserves n contiguous physical frames and returns the
// first PFN.
func (p *Physical) AllocFrames(n uint64) uint64 {
	pfn := p.nextFree
	p.nextFree += n
	return pfn
}

// NextFree reports the frame number the allocator hands out next.
func (p *Physical) NextFree() uint64 { return p.nextFree }

// Frame exposes the backing array of the frame containing pa,
// allocating the backing store on first touch. The functional
// execution tier caches these pointers so its hot loop can read and
// write page bytes without a map lookup per access. The returned
// array is writable: a frame still aliased with a clone or a lender
// is privatized first. Pointers cached across a CloneInto of this
// Physical are stale for writing; re-fetch them.
func (p *Physical) Frame(pa uint64) *[FrameSize]byte { return p.wframe(pa) }

// View is the read-only twin of Frame: it exposes the frame
// containing pa, allocating it on first touch as any read does, but
// never privatizes a shared frame. The caller must not write through
// the returned array.
func (p *Physical) View(pa uint64) *[FrameSize]byte { return p.frame(pa) }

// Borrow installs f, a frame array of another Physical, as the frame
// containing pa, shared copy-on-write: reads see f's bytes, and the
// first write through p copies it (wframe), so the lender never sees
// p's writes. The lender writes f in place, so it must not write
// while the borrower runs. pa's frame number comes from p's own
// allocator, exactly as for a private page; a frame p already held
// there is dropped.
func (p *Physical) Borrow(pa uint64, f *[FrameSize]byte) {
	if !p.cowing {
		// Until now nothing aliased p's frames: they are all its own.
		for fn := range p.frames {
			p.markPriv(fn)
		}
		p.cowing = true
	}
	fn := pa >> FrameShift
	p.frames[fn] = f
	delete(p.priv, fn)
}

// BorrowAll lends p everything src holds, so that p ends up as a
// build into p would have left it. src must start where p's allocator
// stands (NewPhysicalAt(p.NextFree())): every frame src holds is
// borrowed copy-on-write, as by Borrow, at its own frame number, and
// p's allocator advances past src's. src is only read, so any number
// of memories may borrow from it at once while nothing writes it.
func (p *Physical) BorrowAll(src *Physical) error {
	if src.first != p.nextFree {
		return fmt.Errorf("mem: lending frames from %d to a memory whose next free frame is %d", src.first, p.nextFree)
	}
	// Each frame is borrowed once, at its own number; map visit order
	// cannot affect the result.
	for fn, f := range src.frames {
		p.Borrow(fn<<FrameShift, f)
	}
	p.nextFree = src.nextFree
	return nil
}

func (p *Physical) frame(pa uint64) *[FrameSize]byte {
	fn := pa >> FrameShift
	f, ok := p.frames[fn]
	if !ok {
		f = p.newFrame(nil)
		//lint:allow hotpathlint frame materialized once per physical page on first touch, then reused
		p.frames[fn] = f
	}
	return f
}

// wframe is the write-path twin of frame: it additionally privatizes
// a frame whose array is still shared with a clone. Un-cloned
// machines (cowing == false) pay only a bool check.
func (p *Physical) wframe(pa uint64) *[FrameSize]byte {
	fn := pa >> FrameShift
	f, ok := p.frames[fn]
	if !ok {
		f = p.newFrame(nil)
		//lint:allow hotpathlint frame materialized once per physical page on first touch, then reused
		p.frames[fn] = f
		if p.cowing {
			p.markPriv(fn)
		}
		return f
	}
	if p.cowing && !p.priv[fn] {
		f = p.newFrame(f)
		//lint:allow hotpathlint copy-on-write: one frame-table update per cloned page, first write only
		p.frames[fn] = f
		p.markPriv(fn)
	}
	return f
}

// newFrame returns a new frame holding a copy of src, or zeros when
// src is nil, in a recycled frame when the memory has one.
//
//mtexc:coldpath
func (p *Physical) newFrame(src *[FrameSize]byte) *[FrameSize]byte {
	var f *[FrameSize]byte
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		f = new([FrameSize]byte)
		if src == nil {
			return f
		}
	}
	if src == nil {
		*f = [FrameSize]byte{}
	} else {
		*f = *src
	}
	return f
}

// markPriv records that frame fn is no longer aliased by any clone.
//
//mtexc:coldpath
func (p *Physical) markPriv(fn uint64) {
	if p.priv == nil {
		p.priv = make(map[uint64]bool)
	}
	p.priv[fn] = true
}

// ReadU8 reads one byte at physical address pa.
func (p *Physical) ReadU8(pa uint64) uint8 {
	return p.frame(pa)[pa&frameMask]
}

// ReadU32 reads a little-endian 32-bit word; the access must not
// cross a frame boundary (the simulator only issues naturally
// aligned accesses).
func (p *Physical) ReadU32(pa uint64) uint32 {
	off := pa & frameMask
	if off+4 > FrameSize {
		//lint:allow hotpathlint abort path: panics on an access the simulator never issues
		panic(fmt.Sprintf("mem: unaligned frame-crossing 32-bit read at %#x", pa))
	}
	return binary.LittleEndian.Uint32(p.frame(pa)[off : off+4])
}

// WriteU32 writes a little-endian 32-bit word.
func (p *Physical) WriteU32(pa uint64, v uint32) {
	off := pa & frameMask
	if off+4 > FrameSize {
		//lint:allow hotpathlint abort path: panics on an access the simulator never issues
		panic(fmt.Sprintf("mem: unaligned frame-crossing 32-bit write at %#x", pa))
	}
	binary.LittleEndian.PutUint32(p.wframe(pa)[off:off+4], v)
}

// ReadU64 reads a little-endian 64-bit word.
func (p *Physical) ReadU64(pa uint64) uint64 {
	off := pa & frameMask
	if off+8 > FrameSize {
		//lint:allow hotpathlint abort path: panics on an access the simulator never issues
		panic(fmt.Sprintf("mem: unaligned frame-crossing 64-bit read at %#x", pa))
	}
	return binary.LittleEndian.Uint64(p.frame(pa)[off : off+8])
}

// WriteU64 writes a little-endian 64-bit word.
func (p *Physical) WriteU64(pa uint64, v uint64) {
	off := pa & frameMask
	if off+8 > FrameSize {
		//lint:allow hotpathlint abort path: panics on an access the simulator never issues
		panic(fmt.Sprintf("mem: unaligned frame-crossing 64-bit write at %#x", pa))
	}
	binary.LittleEndian.PutUint64(p.wframe(pa)[off:off+8], v)
}
