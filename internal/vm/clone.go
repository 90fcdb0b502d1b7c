package vm

import (
	"fmt"

	"mtexc/internal/mem"
)

// CloneInto returns a deep copy of the TLB: entries, LRU stamps,
// speculative-fill tags and statistics. Lookups and fills on either
// copy leave the other untouched. dst, when non-nil, is a TLB no one
// uses any more; it is overwritten and its entries reused.
func (t *TLB) CloneInto(dst *TLB) *TLB {
	if dst == nil {
		dst = new(TLB)
	}
	entries := dst.entries
	*dst = *t
	dst.entries = append(entries[:0], t.entries...)
	return dst
}

// CloneInto returns a deep copy of the address space bound to phys,
// which must be (a clone of) the physical memory the original's page
// table lives in: frame numbers — the page-table base, the mapped
// PFNs, the two-level leaf bases — carry over unchanged, so the
// in-memory table the cloned physical memory already holds stays
// exactly consistent with the copied mirror.
func (as *AddressSpace) CloneInto(phys *mem.Physical) *AddressSpace {
	c := &AddressSpace{
		ASN:         as.ASN,
		org:         as.org,
		phys:        phys,
		ptBase:      as.ptBase,
		maxVPN:      as.maxVPN,
		mirror:      make(map[uint64]uint64, len(as.mirror)),
		sorted:      as.sorted,
		PagesMapped: as.PagesMapped,
	}
	// Each key is copied once; map visit order cannot affect the
	// resulting mirror.
	for vpn, pfn := range as.mirror {
		c.mirror[vpn] = pfn
	}
	if as.leaves != nil {
		c.leaves = make(map[uint64]uint64, len(as.leaves))
		for ri, base := range as.leaves {
			c.leaves[ri] = base
		}
	}
	return c
}

// LendTo attaches img to phys without building it again. img must have
// been built into a memory of its own that starts where phys's
// allocator stands (mem.NewPhysicalAt(phys.NextFree())). phys borrows
// every frame of that memory copy-on-write and its allocator advances
// past them (mem.Physical.BorrowAll); the returned image shares img's
// code and initial registers, over a clone of its address space bound
// to phys (CloneInto). Frame numbers, page-table entries and the
// page-table base are then exactly those a build into phys produces.
// img is only read, so any number of machines may take it at once,
// and none of their writes reach it.
func (img *Image) LendTo(phys *mem.Physical) (*Image, error) {
	if err := phys.BorrowAll(img.Space.Phys()); err != nil {
		return nil, fmt.Errorf("vm: lending image %q: %w", img.Name, err)
	}
	c := *img
	c.Space = img.Space.CloneInto(phys)
	return &c, nil
}
