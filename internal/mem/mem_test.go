package mem

import (
	"testing"
	"testing/quick"
)

func TestFrameAllocation(t *testing.T) {
	p := NewPhysical()
	a := p.AllocFrame()
	b := p.AllocFrame()
	if a == 0 {
		t.Error("frame 0 must be reserved")
	}
	if b != a+1 {
		t.Errorf("bump allocator: got %d after %d", b, a)
	}
	c := p.AllocFrames(10)
	if c != b+1 {
		t.Errorf("AllocFrames start = %d, want %d", c, b+1)
	}
	if p.NextFree() != 13 {
		t.Errorf("NextFree = %d, want 13", p.NextFree())
	}
}

func TestReadWriteWidths(t *testing.T) {
	p := NewPhysical()
	base := p.AllocFrame() << FrameShift

	p.WriteU32(base+4, 0xdeadbeef)
	if got := p.ReadU32(base + 4); got != 0xdeadbeef {
		t.Errorf("u32 = %#x", got)
	}
	p.WriteU64(base+8, 0x0123456789abcdef)
	if got := p.ReadU64(base + 8); got != 0x0123456789abcdef {
		t.Errorf("u64 = %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	p := NewPhysical()
	base := p.AllocFrame() << FrameShift
	p.WriteU64(base, 0x0102030405060708)
	if got := p.ReadU8(base); got != 0x08 {
		t.Errorf("byte 0 = %#x, want 0x08 (little endian)", got)
	}
	if got := p.ReadU32(base + 4); got != 0x01020304 {
		t.Errorf("upper u32 = %#x", got)
	}
}

func TestUnreadMemoryIsZero(t *testing.T) {
	p := NewPhysical()
	if got := p.ReadU64(123456); got != 0 {
		t.Errorf("fresh memory = %#x, want 0", got)
	}
}

func TestFrameCrossingPanics(t *testing.T) {
	p := NewPhysical()
	defer func() {
		if recover() == nil {
			t.Error("frame-crossing access did not panic")
		}
	}()
	p.ReadU64(FrameSize - 4)
}

// Property: u64 write then read round-trips at any aligned address.
func TestReadWriteQuick(t *testing.T) {
	p := NewPhysical()
	f := func(frame uint16, off uint16, v uint64) bool {
		pa := uint64(frame)<<FrameShift | uint64(off)&(FrameSize-8)&^7
		p.WriteU64(pa, v)
		return p.ReadU64(pa) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPhysicalBorrowCopyOnWrite: a borrowed frame reads as the
// lender's bytes, and the borrower's first write copies it, leaving
// the lender's array untouched and in place. The borrower's own
// frames stay its own: a frame number it already wrote (as
// vm.Image.Load writes the code page before the transfer reaches it)
// must become shared when borrowed over, and frames it never lent
// out are written in place.
func TestPhysicalBorrowCopyOnWrite(t *testing.T) {
	src := NewPhysical()
	lent := src.AllocFrame() << FrameShift
	src.WriteU64(lent, 0xfeed)
	src.WriteU64(lent+8, 0xbeef)
	srcArr := src.View(lent)

	dst := NewPhysical()
	pt := dst.AllocFrame() << FrameShift // a page-table frame
	dst.WriteU64(pt, 1)
	owned := dst.AllocFrame() << FrameShift // the code page
	dst.WriteU32(owned, 0x1234)
	fresh := dst.AllocFrame() << FrameShift
	ptArr := dst.View(pt)

	dst.Borrow(owned, srcArr)
	if got := dst.ReadU64(owned); got != 0xfeed {
		t.Fatalf("borrowed frame reads %#x, want the lender's 0xfeed", got)
	}
	dst.WriteU64(owned, 0x1111)
	if got := src.ReadU64(lent); got != 0xfeed {
		t.Fatalf("borrower's write reached the lender: %#x", got)
	}
	if src.View(lent) != srcArr {
		t.Fatal("borrower's write moved the lender's frame")
	}
	if got, rest := dst.ReadU64(owned), dst.ReadU64(owned+8); got != 0x1111 || rest != 0xbeef {
		t.Fatalf("borrower reads %#x, %#x after its write; want 0x1111, 0xbeef", got, rest)
	}

	// A second borrow shares the same lender frame at another number.
	dst.Borrow(fresh, srcArr)
	dst.WriteU64(fresh+8, 0x2222)
	if got := src.ReadU64(lent + 8); got != 0xbeef {
		t.Fatalf("second borrower write reached the lender: %#x", got)
	}

	// The lender keeps writing in place, and the borrower's private
	// frames are never copied.
	src.WriteU64(lent, 0x3333)
	if src.View(lent) != srcArr || srcArr[0] != 0x33 {
		t.Fatal("lender's write did not land in its own frame")
	}
	dst.WriteU64(pt, 2)
	if dst.View(pt) != ptArr {
		t.Fatal("borrower copied a frame it owned before borrowing")
	}
	if dst.NextFree() != 4 {
		t.Fatalf("borrowing moved the allocator to frame %d", dst.NextFree())
	}
}

// TestPhysicalBorrowAll: a memory built from p's next free frame on
// lends p all of itself copy-on-write, at the same frame numbers, and
// moves p's allocator past it; one built from another frame is
// refused.
func TestPhysicalBorrowAll(t *testing.T) {
	dst := NewPhysical()
	own := dst.AllocFrames(3) << FrameShift
	dst.WriteU64(own, 0x1111)

	src := NewPhysicalAt(dst.NextFree())
	lent := src.AllocFrames(2) << FrameShift
	src.WriteU64(lent, 0xbeef)
	src.WriteU64(lent+FrameSize, 0xcafe)
	if err := NewPhysical().BorrowAll(src); err == nil {
		t.Fatal("a memory whose next free frame is 1 borrowed frames from 4 on")
	}
	if err := dst.BorrowAll(src); err != nil {
		t.Fatal(err)
	}
	if dst.NextFree() != src.NextFree() {
		t.Fatalf("borrower's next free frame is %d, lender's %d", dst.NextFree(), src.NextFree())
	}
	if dst.ReadU64(lent) != 0xbeef || dst.ReadU64(lent+FrameSize) != 0xcafe || dst.ReadU64(own) != 0x1111 {
		t.Fatal("borrower does not read the lent frames and its own at their numbers")
	}
	dst.WriteU64(lent, 0x2222)
	dst.WriteU64(own, 0x3333)
	if src.ReadU64(lent) != 0xbeef || dst.ReadU64(lent) != 0x2222 || dst.ReadU64(own) != 0x3333 {
		t.Fatal("borrower's writes reached the lender or were lost")
	}
}
