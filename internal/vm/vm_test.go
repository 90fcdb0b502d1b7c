package vm

import (
	"math/rand"
	"testing"

	"mtexc/internal/isa"
	"mtexc/internal/mem"
)

func TestPTEPacking(t *testing.T) {
	pte := MakePTE(0x12345, true)
	if !PTEIsValid(pte) {
		t.Error("valid PTE reports invalid")
	}
	if PTEPFN(pte) != 0x12345 {
		t.Errorf("PFN = %#x", PTEPFN(pte))
	}
	if PTEIsValid(MakePTE(0x12345, false)) {
		t.Error("invalid PTE reports valid")
	}
}

func TestAddressSpaceMapping(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 1024)

	va := uint64(5*PageSize + 123)
	if _, ok := as.Translate(va); ok {
		t.Error("unmapped page translated")
	}
	pfn, err := as.MapPage(5)
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := as.Translate(va)
	if !ok {
		t.Fatal("mapped page did not translate")
	}
	if pa != pfn<<PageShift|123 {
		t.Errorf("pa = %#x", pa)
	}
	// The in-memory PTE agrees with the mirror.
	pte := phys.ReadU64(as.PTEAddr(5))
	if !PTEIsValid(pte) || PTEPFN(pte) != pfn {
		t.Errorf("in-memory PTE = %#x, want pfn %#x valid", pte, pfn)
	}
	// Remapping returns the same frame.
	pfn2, _ := as.MapPage(5)
	if pfn2 != pfn {
		t.Errorf("remap changed pfn: %d -> %d", pfn, pfn2)
	}
	if as.PagesMapped != 1 {
		t.Errorf("PagesMapped = %d, want 1", as.PagesMapped)
	}
}

func TestAddressSpaceBounds(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 16)
	if _, err := as.MapPage(16); err == nil {
		t.Error("mapping beyond maxVPN succeeded")
	}
}

func TestUnmapPage(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 64)
	as.MapPage(3)
	as.UnmapPage(3)
	if as.IsMapped(3 << PageShift) {
		t.Error("page still mapped after UnmapPage")
	}
	if PTEIsValid(phys.ReadU64(as.PTEAddr(3))) {
		t.Error("in-memory PTE still valid after UnmapPage")
	}
}

func TestReadWriteThroughTranslation(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 64)
	if err := as.WriteU64(7*PageSize+8, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	if got := as.ReadU64(7*PageSize + 8); got != 0xfeedface {
		t.Errorf("read = %#x", got)
	}
	if got := as.ReadU64(9 * PageSize); got != 0 {
		t.Errorf("unmapped read = %#x, want 0", got)
	}
}

func TestTwoAddressSpacesAreDisjoint(t *testing.T) {
	phys := mem.NewPhysical()
	as1 := NewAddressSpace(phys, 1, 64)
	as2 := NewAddressSpace(phys, 2, 64)
	as1.WriteU64(0, 111)
	as2.WriteU64(0, 222)
	if as1.ReadU64(0) != 111 || as2.ReadU64(0) != 222 {
		t.Error("address spaces share frames")
	}
	pa1, _ := as1.Translate(0)
	pa2, _ := as2.Translate(0)
	if pa1 == pa2 {
		t.Error("same physical frame for two spaces")
	}
}

func TestTLBBasic(t *testing.T) {
	tlb := NewTLB(4)
	if _, hit := tlb.Lookup(1, 10); hit {
		t.Error("empty TLB hit")
	}
	tlb.Insert(1, 10, 99, 0)
	pfn, hit := tlb.Lookup(1, 10)
	if !hit || pfn != 99 {
		t.Errorf("lookup = %d,%v", pfn, hit)
	}
	// ASN isolation.
	if _, hit := tlb.Lookup(2, 10); hit {
		t.Error("cross-ASN hit")
	}
	if tlb.Hits != 1 || tlb.Misses != 2 {
		t.Errorf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 1, 11, 0)
	tlb.Insert(1, 2, 22, 0)
	tlb.Lookup(1, 1)        // make vpn 1 most recent
	tlb.Insert(1, 3, 33, 0) // evicts vpn 2
	if !tlb.Contains(1, 1) {
		t.Error("vpn 1 evicted though recently used")
	}
	if tlb.Contains(1, 2) {
		t.Error("vpn 2 survived though LRU")
	}
	if !tlb.Contains(1, 3) {
		t.Error("vpn 3 missing after insert")
	}
}

func TestTLBSpeculativeLifecycle(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, 10, 99, 77) // speculative fill tagged 77
	if _, hit := tlb.Lookup(1, 10); !hit {
		t.Error("speculative entry not usable")
	}
	tlb.SquashSpec(77)
	if _, hit := tlb.Lookup(1, 10); hit {
		t.Error("squashed speculative entry still present")
	}
	if tlb.SpecKills != 1 {
		t.Errorf("SpecKills = %d", tlb.SpecKills)
	}

	tlb.Insert(1, 11, 88, 78)
	tlb.Commit(78)
	tlb.SquashSpec(78) // must be a no-op after commit
	if _, hit := tlb.Lookup(1, 11); !hit {
		t.Error("committed entry removed by stale squash")
	}
}

func TestTLBInvalidateASNAndFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(1, 1, 11, 0)
	tlb.Insert(2, 1, 22, 0)
	tlb.InvalidateASN(1)
	if tlb.Contains(1, 1) {
		t.Error("ASN 1 entry survived InvalidateASN")
	}
	if !tlb.Contains(2, 1) {
		t.Error("ASN 2 entry removed by InvalidateASN(1)")
	}
	tlb.Flush()
	if tlb.Occupancy() != 0 {
		t.Error("entries survive Flush")
	}
}

// Property: TLB agrees with the address-space oracle for pages that
// have been inserted and not evicted, under random traffic.
func TestTLBVersusOracle(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 3, 4096)
	tlb := NewTLB(64)
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 50000; i++ {
		vpn := uint64(rng.Intn(256))
		pfn, hit := tlb.Lookup(as.ASN, vpn)
		if hit {
			want, ok := as.Translate(vpn << PageShift)
			if !ok {
				t.Fatalf("TLB hit for unmapped vpn %d", vpn)
			}
			if pfn != want>>PageShift {
				t.Fatalf("TLB pfn %d != oracle %d", pfn, want>>PageShift)
			}
		} else {
			// Simulate the fill the handler would perform.
			mapped, err := as.MapPage(vpn)
			if err != nil {
				t.Fatal(err)
			}
			tlb.Insert(as.ASN, vpn, mapped, 0)
		}
	}
	if tlb.Hits == 0 || tlb.Misses == 0 {
		t.Error("degenerate traffic")
	}
}

func TestHandlerGeneration(t *testing.T) {
	h := GenerateDTBMissHandler(DefaultHandlerConfig())
	if len(h.Code) < 10 {
		t.Errorf("handler suspiciously short: %d instructions", len(h.Code))
	}
	if h.CommonLen >= len(h.Code) {
		t.Error("common-case length includes the page-fault path")
	}
	if h.Code[h.HardIdx].Op != isa.OpHardExc {
		t.Errorf("HardIdx points at %v", h.Code[h.HardIdx].Op)
	}
	if h.Code[h.CommonLen-1].Op != isa.OpRfe {
		t.Errorf("common path ends with %v, want rfe", h.Code[h.CommonLen-1].Op)
	}
	// The handler must contain exactly one PTE load and one TLB write.
	loads, tlbwrs := 0, 0
	for _, in := range h.Code {
		switch in.Op {
		case isa.OpLdq:
			loads++
		case isa.OpTlbwr:
			tlbwrs++
		case isa.OpStq, isa.OpStl, isa.OpStf:
			t.Errorf("handler contains a store: %v", in)
		}
	}
	if loads != 1 || tlbwrs != 1 {
		t.Errorf("loads=%d tlbwrs=%d, want 1 and 1", loads, tlbwrs)
	}
}

// walkHandler functionally executes the generated handler against a
// real page table, verifying it computes the right PTE and fill.
func TestHandlerFunctionalWalk(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 1024)
	wantPFN, _ := as.MapPage(17)
	h := GenerateDTBMissHandler(DefaultHandlerConfig())

	faultVA := uint64(17*PageSize + 0x18)
	var regs [32]uint64
	priv := map[isa.PrivReg]uint64{
		isa.PrFaultVA: faultVA,
		isa.PrPTBase:  as.PTBase(),
		isa.PrExcPC:   0x1000,
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
		t.Fatalf("handler did not return normally (returned=%v escalated=%v)", returned, escalated)
	}
	if filledVA != faultVA {
		t.Errorf("filled VA = %#x, want %#x", filledVA, faultVA)
	}
	if PTEPFN(filledPTE) != wantPFN || !PTEIsValid(filledPTE) {
		t.Errorf("filled PTE = %#x, want pfn %#x", filledPTE, wantPFN)
	}
}

// The handler must escalate via HARDEXC when the PTE is invalid.
func TestHandlerEscalatesOnPageFault(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 1024)
	h := GenerateDTBMissHandler(DefaultHandlerConfig())

	faultVA := uint64(21 * PageSize) // never mapped
	var regs [32]uint64
	priv := map[isa.PrivReg]uint64{
		isa.PrFaultVA: faultVA,
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
			t.Fatal("handler filled the TLB for an invalid PTE")
		default:
			if isa.FormatOf(in.Op) == isa.FmtI {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], uint64(in.Imm))
			} else {
				regs[in.Rd] = isa.EvalIntOp(in.Op, regs[in.Ra], regs[in.Rb])
			}
		}
	}
	if !escalated {
		t.Error("handler did not escalate on invalid PTE")
	}
}

func TestHandlerLengthKnobs(t *testing.T) {
	short := GenerateDTBMissHandler(HandlerConfig{})
	long := GenerateDTBMissHandler(HandlerConfig{ExtraPrologue: 10, ExtraDependent: 10})
	if len(long.Code) <= len(short.Code) {
		t.Error("length knobs had no effect")
	}
	if len(long.Code)-len(short.Code) != 20 {
		t.Errorf("length delta = %d, want 20", len(long.Code)-len(short.Code))
	}
}

func TestImageLoadAndFetch(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 1<<20)
	img := &Image{
		Name: "t",
		Code: []isa.Instruction{
			{Op: isa.OpLdi, Rd: 1, Imm: 5},
			{Op: isa.OpHalt},
		},
		Space: as,
	}
	if err := img.Load(phys); err != nil {
		t.Fatal(err)
	}
	in, ok := img.FetchInst(img.CodeVA)
	if !ok || in.Op != isa.OpLdi {
		t.Errorf("fetch at entry = %v,%v", in, ok)
	}
	in, ok = img.FetchInst(img.CodeVA + 4)
	if !ok || in.Op != isa.OpHalt {
		t.Errorf("fetch at +4 = %v,%v", in, ok)
	}
	if _, ok := img.FetchInst(img.CodeVA + 8); ok {
		t.Error("fetch past end succeeded")
	}
	if _, ok := img.FetchInst(img.CodeVA + 2); ok {
		t.Error("unaligned fetch succeeded")
	}
	// The encoded word in memory round-trips.
	w := as.ReadU32(img.CodeVA)
	dec, err := isa.Decode(w)
	if err != nil || dec.Op != isa.OpLdi {
		t.Errorf("in-memory word decodes to %v (%v)", dec, err)
	}
	if img.InstPA(img.CodeVA) != img.CodePA {
		t.Error("InstPA disagrees with CodePA at base")
	}
}

// TestInstPAMatchesTranslation: the code-frame table Load builds
// gives every code address the frame page-accurate translation does,
// for a segment that starts mid-page and spans several pages whose
// frames are not contiguous.
func TestInstPAMatchesTranslation(t *testing.T) {
	phys := mem.NewPhysical()
	as := NewAddressSpace(phys, 1, 1<<20)
	code := make([]isa.Instruction, 3*PageSize/4)
	for i := range code {
		code[i] = isa.Instruction{Op: isa.OpNop}
	}
	img := &Image{Name: "pages", Code: code, CodeVA: DefaultCodeVA + PageSize - 64, Space: as}
	// Map a page between the code pages first so they get scattered
	// frames.
	if _, err := as.MapPage((img.CodeVA >> PageShift) + 2); err != nil {
		t.Fatal(err)
	}
	if err := img.Load(phys); err != nil {
		t.Fatal(err)
	}
	for va := img.CodeVA; va < img.CodeVA+uint64(len(code))*4; va += 4 {
		want, ok := as.Translate(va)
		if !ok {
			t.Fatalf("code va %#x unmapped after load", va)
		}
		if got := img.InstPA(va); got != want {
			t.Fatalf("InstPA(%#x) = %#x, want %#x", va, got, want)
		}
	}
}

func TestPALImage(t *testing.T) {
	phys := mem.NewPhysical()
	h := GenerateDTBMissHandler(DefaultHandlerConfig())
	emu := GenerateEmulationHandler()
	pal := NewPALImage(phys)
	if err := pal.Add(phys, h); err != nil {
		t.Fatal(err)
	}
	if err := pal.Add(phys, emu); err != nil {
		t.Fatal(err)
	}
	if h.EntryVA == emu.EntryVA {
		t.Fatal("handlers share an entry point")
	}
	for _, hh := range []*Handler{h, emu} {
		for i := range hh.Code {
			in, ok := pal.FetchInst(hh.EntryVA + uint64(i)*4)
			if !ok || in != hh.Code[i] {
				t.Fatalf("PAL fetch at %#x = %v,%v", hh.EntryVA+uint64(i)*4, in, ok)
			}
		}
		if _, ok := pal.FetchInst(hh.EntryVA + uint64(len(hh.Code))*4); ok {
			t.Error("PAL fetch past end succeeded")
		}
		if !IsPALVA(hh.EntryVA) {
			t.Error("handler entry not in PAL region")
		}
	}
	if IsPALVA(DefaultCodeVA) {
		t.Error("user code VA classified as PAL")
	}
	// The data area holds a correct popcount table.
	for _, v := range []uint64{0, 1, 3, 0x80, 0xff} {
		want := uint64(0)
		for b := v; b != 0; b >>= 1 {
			want += b & 1
		}
		if got := phys.ReadU64(pal.DataPA + v*8); got != want {
			t.Errorf("popc table[%d] = %d, want %d", v, got, want)
		}
	}
}
