package mem

import "testing"

func TestPhysicalCloneIndependence(t *testing.T) {
	p := NewPhysical()
	base := p.AllocFrame() * FrameSize
	p.WriteU64(base, 0xdeadbeef)

	c := p.Clone()
	if got := c.ReadU64(base); got != 0xdeadbeef {
		t.Fatalf("clone read %#x, want 0xdeadbeef", got)
	}
	if c.NextFree() != p.NextFree() {
		t.Fatalf("clone allocator frontier %d != %d", c.NextFree(), p.NextFree())
	}

	// Writes through the clone must not reach the original, and the
	// clone's allocator must advance independently.
	c.WriteU64(base, 0x1111)
	if got := p.ReadU64(base); got != 0xdeadbeef {
		t.Fatalf("clone write leaked into original: %#x", got)
	}
	c.AllocFrame()
	if c.NextFree() != p.NextFree()+1 {
		t.Fatal("clone allocation moved the original's frontier")
	}
}

func TestPhysicalCloneSameFrameNumbers(t *testing.T) {
	// Page tables name physical frames by number, so a clone must hand
	// out the same frame numbers the original would.
	p := NewPhysical()
	p.AllocFrames(3)
	c := p.Clone()
	if pf, cf := p.AllocFrame(), c.AllocFrame(); pf != cf {
		t.Fatalf("post-clone allocations diverge: %d != %d", pf, cf)
	}
}
