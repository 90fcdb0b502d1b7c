package vm

import (
	"testing"

	"mtexc/internal/isa"
	"mtexc/internal/mem"
)

func TestTwoLevelMappingAndWalk(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpaceTwoLevel(phys, 1, 1<<20)
	if as.Org() != PTTwoLevel {
		t.Fatal("organization not two-level")
	}

	vpn := uint64(3*1024 + 17) // root index 3, leaf index 17
	pfn, err := as.MapPage(vpn)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the table the way the handler and walker do.
	root := phys.ReadU64(as.RootEntryAddr(vpn))
	if !PTEIsValid(root) {
		t.Fatal("root entry invalid after MapPage")
	}
	pte := phys.ReadU64(LeafPTEAddr(root, vpn))
	if !PTEIsValid(pte) || PTEPFN(pte) != pfn {
		t.Fatalf("leaf PTE = %#x, want pfn %#x valid", pte, pfn)
	}

	// The oracle agrees.
	pa, ok := as.Translate(vpn<<PageShift | 40)
	if !ok || pa != pfn<<PageShift|40 {
		t.Fatalf("oracle pa = %#x, %v", pa, ok)
	}

	// An unmapped region has an invalid root entry.
	if PTEIsValid(phys.ReadU64(as.RootEntryAddr(900 * 1024))) {
		t.Error("untouched root entry valid")
	}

	// Unmap invalidates the leaf PTE but keeps the leaf page.
	as.UnmapPage(vpn)
	if PTEIsValid(phys.ReadU64(LeafPTEAddr(root, vpn))) {
		t.Error("leaf PTE valid after UnmapPage")
	}
	if !PTEIsValid(phys.ReadU64(as.RootEntryAddr(vpn))) {
		t.Error("root entry dropped by UnmapPage")
	}
}

func TestTwoLevelLeafSharing(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpaceTwoLevel(phys, 1, 1<<20)
	// Two pages under the same root entry share a leaf frame.
	as.MapPage(5)
	framesAfterFirst := phys.NextFree()
	as.MapPage(6)
	if phys.NextFree() != framesAfterFirst+1 {
		t.Error("second page in the same leaf allocated more than its data frame")
	}
	// A page in a distant region allocates a new leaf.
	if _, err := as.MapPage(500 * 1024); err != nil {
		t.Fatal(err)
	}
	if phys.NextFree() != framesAfterFirst+3 {
		t.Errorf("distant page should cost a leaf + data frame (frames %d -> %d)",
			framesAfterFirst, phys.NextFree())
	}
}

func TestTwoLevelHandlerWalksCorrectly(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpaceTwoLevel(phys, 1, 1<<20)
	wantPFN, _ := as.MapPage(2049) // root 2, leaf 1
	h := GenerateDTBMissHandlerTwoLevel(DefaultHandlerConfig())

	faultVA := uint64(2049*PageSize + 0x20)
	var regs [32]uint64
	priv := map[isa.PrivReg]uint64{
		isa.PrFaultVA: faultVA,
		isa.PrPTBase:  as.PTBase(),
	}
	var filledVA, filledPTE uint64
	var returned, escalated bool
	pc := 0
	for steps := 0; steps < 100 && !returned && !escalated; steps++ {
		in := h.Code[pc]
		pc++
		switch in.Op {
		case isa.OpMfpr:
			regs[in.Rd] = priv[isa.PrivReg(in.Imm)]
		case isa.OpLdq:
			regs[in.Rd] = phys.ReadU64(regs[in.Ra] + uint64(in.Imm))
		case isa.OpTlbwr:
			filledVA, filledPTE = regs[in.Ra], regs[in.Rb]
		case isa.OpRfe:
			returned = true
		case isa.OpHardExc:
			escalated = true
		case isa.OpBeq:
			if regs[in.Ra] == 0 {
				pc += int(in.Imm)
			}
		default:
			if isa.FormatOf(in.Op) == isa.FmtI {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], uint64(in.Imm))
			} else {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], regs[in.Rb])
			}
		}
	}
	if !returned || escalated {
		t.Fatalf("two-level handler returned=%v escalated=%v", returned, escalated)
	}
	if filledVA != faultVA || PTEPFN(filledPTE) != wantPFN {
		t.Errorf("filled (%#x, %#x), want (%#x, pfn %#x)", filledVA, filledPTE, faultVA, wantPFN)
	}
	// The handler performs exactly two loads (root + leaf).
	loads := 0
	for _, in := range h.Code {
		if in.Op == isa.OpLdq {
			loads++
		}
	}
	if loads != 2 {
		t.Errorf("two-level handler has %d loads, want 2", loads)
	}
}

func TestTwoLevelHandlerEscalatesOnMissingRegion(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpaceTwoLevel(phys, 1, 1<<20)
	h := GenerateDTBMissHandlerTwoLevel(DefaultHandlerConfig())

	var regs [32]uint64
	priv := map[isa.PrivReg]uint64{
		isa.PrFaultVA: 7777 * PageSize, // never mapped; root entry invalid
		isa.PrPTBase:  as.PTBase(),
	}
	var escalated, returned bool
	pc := 0
	for steps := 0; steps < 100 && !returned && !escalated; steps++ {
		in := h.Code[pc]
		pc++
		switch in.Op {
		case isa.OpMfpr:
			regs[in.Rd] = priv[isa.PrivReg(in.Imm)]
		case isa.OpLdq:
			regs[in.Rd] = phys.ReadU64(regs[in.Ra] + uint64(in.Imm))
		case isa.OpRfe:
			returned = true
		case isa.OpHardExc:
			escalated = true
		case isa.OpBeq:
			if regs[in.Ra] == 0 {
				pc += int(in.Imm)
			}
		case isa.OpTlbwr:
			t.Fatal("filled the TLB through an invalid root entry")
		default:
			if isa.FormatOf(in.Op) == isa.FmtI {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], uint64(in.Imm))
			} else {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], regs[in.Rb])
			}
		}
	}
	if !escalated {
		t.Error("missing root region did not escalate")
	}
}
