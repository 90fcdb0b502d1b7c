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
	if p.FramesAllocated() != 12 {
		t.Errorf("FramesAllocated = %d, want 12", p.FramesAllocated())
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
