package vm

import (
	"testing"

	"mtexc/internal/mem"
)

func TestTLBCloneIndependence(t *testing.T) {
	tlb := NewTLBSetAssoc(16, 4)
	for vpn := uint64(0); vpn < 8; vpn++ {
		tlb.Insert(1, vpn, 100+vpn, 0)
	}
	tlb.Lookup(1, 3)

	c := tlb.CloneInto(nil)
	if c.ValidEntries() != tlb.ValidEntries() || c.Hits != tlb.Hits {
		t.Fatal("clone does not mirror occupancy/stats")
	}
	for vpn := uint64(0); vpn < 8; vpn++ {
		pfn, hit := c.Lookup(1, vpn)
		if !hit || pfn != 100+vpn {
			t.Fatalf("clone lost mapping vpn=%d", vpn)
		}
	}

	// Flushing the clone must leave the original's entries intact.
	c.Flush()
	if c.ValidEntries() != 0 {
		t.Fatal("flush did not empty the clone")
	}
	if !tlb.Contains(1, 5) {
		t.Fatal("clone flush evicted the original's entries")
	}
}

func TestAddressSpaceCloneInto(t *testing.T) {
	for _, org := range []PTOrg{PTLinear, PTTwoLevel} {
		phys := mem.NewPhysical()
		var as *AddressSpace
		if org == PTTwoLevel {
			as = NewAddressSpaceTwoLevel(phys, 1, 1<<12)
		} else {
			as = NewAddressSpace(phys, 1, 1<<12)
		}
		for vpn := uint64(0); vpn < 6; vpn++ {
			if _, err := as.MapPage(vpn * 3); err != nil {
				t.Fatal(err)
			}
		}
		va := uint64(3 * mem.FrameSize)
		if err := as.WriteU64(va, 0xabc); err != nil {
			t.Fatal(err)
		}

		cphys := phys.CloneInto(nil)
		c := as.CloneInto(cphys)
		if c.Phys() != cphys {
			t.Fatal("clone not bound to the cloned physical memory")
		}
		if c.ContentHash() != as.ContentHash() {
			t.Fatalf("%v: clone content hash differs", org)
		}
		// Hashing reads pages without privatizing them.
		if pa := mustTranslate(t, as, va); cphys.View(pa) != phys.View(pa) {
			t.Fatalf("%v: hashing the clone copied a shared page", org)
		}
		// The cloned page table (living in cloned physical memory) must
		// still translate, and new mappings on either side must not
		// affect the other.
		if pa, ok := c.Translate(va); !ok || pa != mustTranslate(t, as, va) {
			t.Fatalf("%v: clone translation broken", org)
		}
		if _, err := c.MapPage(100); err != nil {
			t.Fatal(err)
		}
		if as.IsMapped(100 * mem.FrameSize) {
			t.Fatalf("%v: clone MapPage leaked into original", org)
		}
	}
}

func mustTranslate(t *testing.T, as *AddressSpace, va uint64) uint64 {
	t.Helper()
	pa, ok := as.Translate(va)
	if !ok {
		t.Fatalf("translate %#x failed", va)
	}
	return pa
}
