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

// Physical is a sparse physical address space. Clone produces
// copy-on-write forks: cloned frames share backing arrays until one
// side writes, so a machine that is never cloned pays only a nil
// check on the write path.
type Physical struct {
	frames   map[uint64]*[FrameSize]byte
	cowing   bool            // a clone may alias any frame not yet privatized
	priv     map[uint64]bool // frames privatized (or created) since the last Clone
	nextFree uint64          // bump pointer for frame allocation, in frame numbers
}

// NewPhysical returns an empty physical memory. Frame number zero is
// reserved so that a zero PFN can mean "invalid" in page-table
// entries.
func NewPhysical() *Physical {
	return &Physical{
		frames:   make(map[uint64]*[FrameSize]byte),
		nextFree: 1,
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

// FramesAllocated reports how many frames have been reserved.
func (p *Physical) FramesAllocated() uint64 { return p.nextFree - 1 }

// Frame exposes the backing array of the frame containing pa,
// allocating the backing store on first touch. The functional
// execution tier caches these pointers so its hot loop can read and
// write page bytes without a map lookup per access; whole-page copies
// (architectural state transfer) use it too. The
// returned array is writable: a frame still aliased with a clone is
// privatized first. Pointers cached across a Clone of this Physical
// are stale for writing; re-fetch them.
func (p *Physical) Frame(pa uint64) *[FrameSize]byte { return p.wframe(pa) }

func (p *Physical) frame(pa uint64) *[FrameSize]byte {
	fn := pa >> FrameShift
	f, ok := p.frames[fn]
	if !ok {
		//lint:allow hotpathlint frame materialized once per physical page on first touch, then reused
		f = new([FrameSize]byte)
		//lint:allow hotpathlint same: one frame-table insert per page lifetime
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
		//lint:allow hotpathlint frame materialized once per physical page on first touch, then reused
		f = new([FrameSize]byte)
		//lint:allow hotpathlint same: one frame-table insert per page lifetime
		p.frames[fn] = f
		if p.cowing {
			p.markPriv(fn)
		}
		return f
	}
	if p.cowing && !p.priv[fn] {
		nf := *f
		f = &nf
		//lint:allow hotpathlint copy-on-write: one frame-table update per cloned page, first write only
		p.frames[fn] = f
		p.markPriv(fn)
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
