package mem

import "testing"

func TestPhysicalCloneIndependence(t *testing.T) {
	p := NewPhysical()
	base := p.AllocFrame() * FrameSize
	p.WriteU64(base, 0xdeadbeef)

	c := p.CloneInto(nil)
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
	c := p.CloneInto(nil)
	if pf, cf := p.AllocFrame(), c.AllocFrame(); pf != cf {
		t.Fatalf("post-clone allocations diverge: %d != %d", pf, cf)
	}
}

// TestPhysicalCloneIntoRecyclesFrames: a memory recycled by CloneInto
// reads exactly as its new source, fills its pages from the frames it
// owned before (wrote or created, never the ones it still shared),
// and stays copy-on-write against the source both ways.
func TestPhysicalCloneIntoRecyclesFrames(t *testing.T) {
	p := NewPhysical()
	a, b := p.AllocFrame()*FrameSize, p.AllocFrame()*FrameSize
	p.WriteU64(a, 1)
	p.WriteU64(b, 2)

	spare := p.CloneInto(nil)
	spare.WriteU64(a, 10) // copies a: spare owns it
	fresh := spare.AllocFrame() * FrameSize
	spare.WriteU64(fresh+8, 30) // creates a frame spare owns
	p.WriteU64(b, 20)           // copies b on p's side; spare still shares the old b

	c := p.CloneInto(spare)
	if c != spare || len(c.free) != 2 {
		t.Fatalf("recycled memory kept %d frames, want the 2 it owned", len(c.free))
	}
	if c.ReadU64(a) != 1 || c.ReadU64(b) != 20 || c.NextFree() != p.NextFree() {
		t.Fatalf("recycled clone reads a=%d b=%d next=%d, want 1, 20, %d",
			c.ReadU64(a), c.ReadU64(b), c.NextFree(), p.NextFree())
	}
	if got := c.ReadU64(fresh + 8); got != 0 {
		t.Fatalf("a recycled frame kept its old bytes: read %d at a page the source never touched", got)
	}
	c.WriteU64(a, 100)
	c.WriteU64(b+16, 200)
	p.WriteU64(b+24, 300)
	if p.ReadU64(a) != 1 || p.ReadU64(b+16) != 0 || c.ReadU64(b+24) != 0 {
		t.Fatal("a write through the recycled clone or its source reached the other")
	}
	if c.ReadU64(a) != 100 || c.ReadU64(b) != 20 || c.ReadU64(b+16) != 200 {
		t.Fatal("the recycled clone lost its own writes")
	}
}
