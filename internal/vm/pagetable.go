// Package vm provides the virtual-memory substrate: per-thread
// address spaces backed by linear page tables held in simulated
// physical memory, the shared ASN-tagged data TLB with support for
// speculative fills, the PAL-style software TLB miss handler, and
// loadable program images.
package vm

import (
	"fmt"
	"sort"

	"mtexc/internal/mem"
)

// Page geometry follows the physical frame geometry (8 KB pages).
const (
	PageShift = mem.FrameShift
	PageSize  = mem.FrameSize
)

// PTE layout: PFN in bits [63:8], flags in [7:0].
const (
	PTEValid   = 1 << 0
	ptePFNShft = 8
)

// MakePTE assembles a page-table entry.
func MakePTE(pfn uint64, valid bool) uint64 {
	pte := pfn << ptePFNShft
	if valid {
		pte |= PTEValid
	}
	return pte
}

// PTEPFN extracts the physical frame number from a PTE.
func PTEPFN(pte uint64) uint64 { return pte >> ptePFNShft }

// PTEIsValid reports whether the PTE maps a resident page.
func PTEIsValid(pte uint64) bool { return pte&PTEValid != 0 }

// PTOrg selects the in-memory page-table organization — the
// flexibility software-managed TLBs grant the operating system
// (Section 2 of the paper).
type PTOrg uint8

// Page-table organizations.
const (
	// PTLinear is a flat array of PTEs indexed by VPN: one load per
	// walk (the 21164-style virtually-linear table, held physical
	// here).
	PTLinear PTOrg = iota
	// PTTwoLevel is a radix tree: a root table of leaf-page pointers
	// indexed by the high VPN bits, then a PTE within the leaf — two
	// dependent loads per walk.
	PTTwoLevel
)

// Two-level split: low leafBits of the VPN index within a leaf page
// (PageSize / 8 bytes per PTE = 1024 entries).
const (
	LeafBits = PageShift - 3
	LeafMask = 1<<LeafBits - 1
)

// AddressSpace is one thread's virtual address space: a page table in
// physical memory plus a Go-side mirror used for oracle (functional)
// translation. The mirror is kept exactly consistent with the
// in-memory table; the simulated handler and hardware walker read the
// in-memory table.
type AddressSpace struct {
	ASN    uint8
	org    PTOrg
	phys   *mem.Physical
	ptBase uint64            // linear: &PTE[0]; two-level: &root[0] (both physical)
	maxVPN uint64            // exclusive upper bound on mappable VPNs
	mirror map[uint64]uint64 // vpn -> pfn for valid pages
	leaves map[uint64]uint64 // two-level: root index -> leaf frame base

	// PagesMapped counts MapPage calls, for OS accounting.
	PagesMapped uint64
}

// NewAddressSpace allocates a linear page table covering maxVPN pages
// (rounded up to whole frames) and returns an address space with no
// pages mapped.
func NewAddressSpace(phys *mem.Physical, asn uint8, maxVPN uint64) *AddressSpace {
	ptBytes := maxVPN * 8
	frames := (ptBytes + mem.FrameSize - 1) / mem.FrameSize
	if frames == 0 {
		frames = 1
	}
	base := phys.AllocFrames(frames) << mem.FrameShift
	return &AddressSpace{
		ASN:    asn,
		org:    PTLinear,
		phys:   phys,
		ptBase: base,
		maxVPN: maxVPN,
		mirror: make(map[uint64]uint64),
	}
}

// NewAddressSpaceTwoLevel allocates a two-level (radix) page table
// covering maxVPN pages. The root occupies whole frames; leaf pages
// are allocated on demand as regions are first mapped.
func NewAddressSpaceTwoLevel(phys *mem.Physical, asn uint8, maxVPN uint64) *AddressSpace {
	rootEntries := (maxVPN + LeafMask) >> LeafBits
	frames := (rootEntries*8 + mem.FrameSize - 1) / mem.FrameSize
	if frames == 0 {
		frames = 1
	}
	base := phys.AllocFrames(frames) << mem.FrameShift
	return &AddressSpace{
		ASN:    asn,
		org:    PTTwoLevel,
		phys:   phys,
		ptBase: base,
		maxVPN: maxVPN,
		mirror: make(map[uint64]uint64),
		leaves: make(map[uint64]uint64),
	}
}

// Org reports the page-table organization.
func (as *AddressSpace) Org() PTOrg { return as.org }

// RootEntryAddr reports the physical address of the two-level root
// entry covering vpn.
func (as *AddressSpace) RootEntryAddr(vpn uint64) uint64 {
	return as.ptBase + (vpn>>LeafBits)*8
}

// LeafPTEAddr reports the physical PTE address within the leaf page
// named by a root entry.
func LeafPTEAddr(rootEntry, vpn uint64) uint64 {
	return PTEPFN(rootEntry)<<PageShift + (vpn&LeafMask)*8
}

// leafFor returns (allocating on demand) the leaf frame base for vpn.
func (as *AddressSpace) leafFor(vpn uint64) uint64 {
	ri := vpn >> LeafBits
	if base, ok := as.leaves[ri]; ok {
		return base
	}
	frame := as.phys.AllocFrame()
	base := frame << mem.FrameShift
	//lint:allow hotpathlint leaf table materialized once per page-table node, then hit in the map
	as.leaves[ri] = base
	as.phys.WriteU64(as.RootEntryAddr(vpn), MakePTE(frame, true))
	return base
}

// PTBase reports the physical address of the page table, as loaded
// into the PTBASE privileged register.
func (as *AddressSpace) PTBase() uint64 { return as.ptBase }

// MaxVPN reports the exclusive VPN bound of the table.
func (as *AddressSpace) MaxVPN() uint64 { return as.maxVPN }

// PTEAddr reports the physical address of the PTE for vpn. For a
// two-level table this is the leaf location and allocates the leaf on
// demand (OS behaviour); the walk itself must go through the root.
func (as *AddressSpace) PTEAddr(vpn uint64) uint64 {
	if as.org == PTTwoLevel {
		return as.leafFor(vpn) + (vpn&LeafMask)*8
	}
	return as.ptBase + vpn*8
}

// MapPage allocates a fresh physical frame for vpn, writes the PTE,
// and returns the PFN. Mapping an already-mapped page returns the
// existing PFN.
func (as *AddressSpace) MapPage(vpn uint64) (uint64, error) {
	if vpn >= as.maxVPN {
		//lint:allow hotpathlint abort path: address-space exhaustion terminates the run
		return 0, fmt.Errorf("vm: vpn %#x beyond address-space bound %#x", vpn, as.maxVPN)
	}
	if pfn, ok := as.mirror[vpn]; ok {
		return pfn, nil
	}
	pfn := as.phys.AllocFrame()
	as.phys.WriteU64(as.PTEAddr(vpn), MakePTE(pfn, true))
	//lint:allow hotpathlint mirror insert happens once per page mapping (OS fault service), not per access
	as.mirror[vpn] = pfn
	as.PagesMapped++
	return pfn, nil
}

// UnmapPage clears the PTE for vpn, modelling a page being paged out;
// subsequent misses on it page-fault (hard exception).
func (as *AddressSpace) UnmapPage(vpn uint64) {
	if vpn >= as.maxVPN {
		return
	}
	if pfn, ok := as.mirror[vpn]; ok {
		as.phys.WriteU64(as.PTEAddr(vpn), MakePTE(pfn, false))
		delete(as.mirror, vpn)
	}
}

// Translate performs an oracle translation of va, reporting the
// physical address and whether the page is resident.
func (as *AddressSpace) Translate(va uint64) (uint64, bool) {
	pfn, ok := as.mirror[va>>PageShift]
	if !ok {
		return 0, false
	}
	return pfn<<PageShift | va&(PageSize-1), true
}

// EnsureMapped maps the page containing va if needed and returns the
// physical address of va.
func (as *AddressSpace) EnsureMapped(va uint64) (uint64, error) {
	pfn, err := as.MapPage(va >> PageShift)
	if err != nil {
		return 0, err
	}
	return pfn<<PageShift | va&(PageSize-1), nil
}

// ForEachMapped visits every resident VPN in ascending order.
func (as *AddressSpace) ForEachMapped(visit func(vpn uint64)) {
	vpns := make([]uint64, 0, len(as.mirror))
	//lint:allow detlint keys are sorted below before any visit runs
	for vpn := range as.mirror {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		visit(vpn)
	}
}

// Phys exposes the backing physical memory, for tools that combine
// oracle translation with byte-granular physical access (the
// differential-fuzzing reference emulator mirrors the core's
// unaligned-span reads this way).
func (as *AddressSpace) Phys() *mem.Physical { return as.phys }

// ContentHash returns an FNV-1a hash over the mapped portion of the
// address space: every resident VPN followed by its page contents, in
// ascending VPN order. Two spaces hash equal exactly when they map
// the same virtual pages with the same bytes — the memory half of the
// differential-fuzzing final-state signature. Physical frame numbers
// do not enter the hash, so spaces built over different physical
// allocators compare equal.
func (as *AddressSpace) ContentHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	as.ForEachMapped(func(vpn uint64) {
		mix(vpn)
		base := vpn << PageShift
		pa, _ := as.Translate(base)
		for off := uint64(0); off < PageSize; off += 8 {
			mix(as.phys.ReadU64(pa + off))
		}
	})
	return h
}

// ReadU64 reads through the oracle translation; for loaders and
// functional execution. Unmapped reads return zero (the simulator
// only issues them on mis-speculated paths).
func (as *AddressSpace) ReadU64(va uint64) uint64 {
	pa, ok := as.Translate(va)
	if !ok {
		return 0
	}
	return as.phys.ReadU64(pa)
}

// WriteU64 writes through the oracle translation, mapping the page on
// demand (loader convenience).
func (as *AddressSpace) WriteU64(va, v uint64) error {
	pa, err := as.EnsureMapped(va)
	if err != nil {
		return err
	}
	as.phys.WriteU64(pa, v)
	return nil
}

// ReadU32 reads a 32-bit value through the oracle translation.
func (as *AddressSpace) ReadU32(va uint64) uint32 {
	pa, ok := as.Translate(va)
	if !ok {
		return 0
	}
	return as.phys.ReadU32(pa)
}

// WriteU32 writes a 32-bit value through the oracle translation,
// mapping on demand.
func (as *AddressSpace) WriteU32(va uint64, v uint32) error {
	pa, err := as.EnsureMapped(va)
	if err != nil {
		return err
	}
	as.phys.WriteU32(pa, v)
	return nil
}
