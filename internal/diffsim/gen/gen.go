// Package gen generates random but terminating programs for the
// differential-fuzzing subsystem. A Program is a pure value — a seed,
// a handful of knobs and a list of body fragments — and assembly is a
// deterministic function of that value, so programs round-trip
// through a compact spec string (see spec.go), shrink by deleting
// fragments, and rebuild bit-identically anywhere: in the fuzzer, in
// the reference emulator, and as an mtexcsim workload replaying a
// shrunk repro.
//
// The generator descends from the one in internal/cpu's differential
// test, extended with knobs for TLB pressure (page-strided pointer
// walks), page faults (a deterministic fraction of data pages is
// unmapped after loading, workload.Faulty-style), unaligned access,
// calls and handler-length stress, with one structural change: all
// data addresses are masked into the initialized region, so a
// program's architectural path never touches memory the knobs did not
// place there. That containment is what lets the perfect-TLB machine
// — which silently drops unmapped accesses instead of faulting —
// participate in the comparison whenever FaultPct is zero.
//
//mtexc:deterministic
package gen

import (
	"fmt"
	"math/rand"

	"mtexc/internal/isa"
	"mtexc/internal/isa/asm"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// Program layout constants. DataVA/ResultVA match the conventions of
// the migrated differential-test generator.
const (
	DataVA   = uint64(0x1000_0000)
	ResultVA = uint64(0x2000_0000)

	// maxVPN bounds the generated address spaces; every address the
	// generator can form is far below it.
	maxVPN = 1 << 20
)

// Register conventions inside generated programs.
const (
	rTrips  = 1  // outer-loop counter
	rAcc    = 3  // primary accumulator (result word 0)
	rAcc2   = 5  // secondary accumulator (result word 1)
	rAcc3   = 7  // tertiary accumulator (result word 2)
	rTmp    = 8  // load/branch scratch
	rOff    = 9  // data offset accumulator
	rPtr    = 10 // data pointer = rBase + rOff
	rBase   = 11 // DataVA
	rMask   = 12 // offset mask (regionBytes - 16)
	rResult = 13 // ResultVA
)

// FragKind enumerates body-fragment shapes.
type FragKind uint8

// Fragment kinds. Each expands to a short, self-contained instruction
// burst; FragLoad advances the masked data pointer by whole pages for
// TLB pressure, FragUnaligned reads off-word (never crossing a page).
const (
	FragArith FragKind = iota
	FragLoad
	FragStore
	FragBranch
	FragMulDiv
	FragFP
	FragCall
	FragPopc
	FragUnaligned
	numFragKinds
)

// Fragment is one body burst: a kind plus three small shape
// parameters (register choices, strides, immediates).
type Fragment struct {
	Kind    FragKind
	A, B, C int
}

// Knobs parameterize a program's stress profile.
type Knobs struct {
	// Pages is the initialized data-region size in pages; must be a
	// power of two (the pointer mask depends on it).
	Pages int
	// Trips is the outer-loop trip count.
	Trips int
	// FaultPct unmaps approximately this percentage of data pages
	// after loading, so first touches page-fault through the
	// hard-exception path. The perfect-TLB machine is excluded from
	// comparisons when nonzero (it cannot fault).
	FaultPct int
}

// Program is a complete generated program. The zero value is not
// runnable; use Generate or ParseSpec.
type Program struct {
	// Seed drives the deterministic page-out choice (and records the
	// generation seed for provenance).
	Seed  int64
	Knobs Knobs
	Frags []Fragment
}

// Limits bounds generation; the zero value selects the fuzzing
// defaults (small enough that a full mechanism grid runs in tens of
// milliseconds).
type Limits struct {
	MaxPages    int // power of two cap on Knobs.Pages (default 64)
	MaxTrips    int // cap on Knobs.Trips (default 40)
	MaxFrags    int // cap on len(Frags) (default 12)
	NoFault     bool
	NoUnaligned bool
}

func (l Limits) withDefaults() Limits {
	if l.MaxPages <= 0 {
		l.MaxPages = 64
	}
	if l.MaxTrips <= 0 {
		l.MaxTrips = 40
	}
	if l.MaxFrags < 3 {
		l.MaxFrags = 12
	}
	return l
}

// Generate produces a random program under seed. Equal seeds and
// limits produce equal programs.
func Generate(seed int64, lim Limits) *Program {
	lim = lim.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	pages := 1 << rng.Intn(log2(lim.MaxPages)+1)
	p := &Program{
		Seed: seed,
		Knobs: Knobs{
			Pages: pages,
			Trips: 4 + rng.Intn(lim.MaxTrips),
		},
	}
	// Faults in roughly a third of programs, when allowed.
	if !lim.NoFault && rng.Intn(3) == 0 {
		p.Knobs.FaultPct = 10 + rng.Intn(60)
	}
	unaligned := !lim.NoUnaligned && rng.Intn(2) == 0
	nFrag := 3 + rng.Intn(lim.MaxFrags-2)
	for i := 0; i < nFrag; i++ {
		kinds := int(numFragKinds)
		if !unaligned {
			kinds-- // FragUnaligned is last
		}
		p.Frags = append(p.Frags, Fragment{
			Kind: FragKind(rng.Intn(kinds)),
			A:    rng.Intn(1 << 16),
			B:    rng.Intn(1 << 16),
			C:    rng.Intn(1 << 16),
		})
	}
	return p
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// HasCall reports whether any fragment calls the leaf function.
func (p *Program) HasCall() bool {
	for _, f := range p.Frags {
		if f.Kind == FragCall {
			return true
		}
	}
	return false
}

// HasUnaligned reports whether any fragment performs an unaligned
// access; such programs are also compared under TrapUnaligned, which
// changes the load architecture uniformly across mechanisms.
func (p *Program) HasUnaligned() bool {
	for _, f := range p.Frags {
		if f.Kind == FragUnaligned {
			return true
		}
	}
	return false
}

// regionBytes is the initialized data-region size.
func (p *Program) regionBytes() uint64 {
	return uint64(p.Knobs.Pages) * vm.PageSize
}

// Build assembles the program. Assembly is a pure function of the
// Program value: labels are keyed by fragment index, so deleting
// fragments (shrinking) cannot perturb the remaining code beyond the
// deleted range.
func (p *Program) Build() ([]isa.Instruction, error) {
	if p.Knobs.Pages <= 0 || p.Knobs.Pages&(p.Knobs.Pages-1) != 0 {
		return nil, fmt.Errorf("gen: Pages %d is not a positive power of two", p.Knobs.Pages)
	}
	if p.Knobs.Trips <= 0 {
		return nil, fmt.Errorf("gen: Trips %d must be positive", p.Knobs.Trips)
	}
	b := asm.NewBuilder()
	b.LoadImm(rBase, DataVA)
	b.LoadImm(rMask, p.regionBytes()-16)
	b.Move(rPtr, rBase)
	b.I(isa.OpLdi, rOff, 0, 0)
	b.LoadImm(rTrips, uint64(p.Knobs.Trips))
	b.Label("outer")
	for i, f := range p.Frags {
		p.emitFrag(b, i, f)
	}
	b.I(isa.OpAddi, rTrips, rTrips, -1)
	b.Branch(isa.OpBne, rTrips, "outer")
	b.LoadImm(rResult, ResultVA)
	b.I(isa.OpStq, rAcc, rResult, 0)
	b.I(isa.OpStq, rAcc2, rResult, 8)
	b.I(isa.OpStq, rAcc3, rResult, 16)
	b.Emit(isa.Instruction{Op: isa.OpHalt})
	if p.HasCall() {
		b.Label("leaf")
		b.I(isa.OpAddi, rAcc, rAcc, 3)
		b.Emit(isa.Instruction{Op: isa.OpRet})
	}
	return b.Finish()
}

// emitFrag expands one fragment. Every fragment leaves the pointer
// invariants intact: rPtr = rBase + rOff with rOff 16-aligned and at
// most regionBytes-16, so loads at rPtr+delta (delta < 16) and stores
// at rPtr/rPtr+8 stay inside the initialized region and unaligned
// spans never cross a page boundary.
func (p *Program) emitFrag(b *asm.Builder, i int, f Fragment) {
	switch f.Kind {
	case FragArith:
		b.I(isa.OpAddi, uint8(4+f.A%4), uint8(4+f.B%4), int64(f.C%100))
	case FragLoad:
		// Page-strided pointer walk: the TLB pressure generator.
		b.I(isa.OpAddi, rTmp, isa.RegZero, int64(1+f.A%7))
		b.I(isa.OpSlli, rTmp, rTmp, int64(vm.PageShift))
		b.R(isa.OpAdd, rOff, rOff, rTmp)
		b.I(isa.OpAddi, rOff, rOff, int64(8*(f.B%16)))
		b.R(isa.OpAnd, rOff, rOff, rMask)
		b.R(isa.OpAdd, rPtr, rBase, rOff)
		b.I(isa.OpLdq, rTmp, rPtr, 0)
		b.R(isa.OpAdd, rAcc, rAcc, rTmp)
	case FragStore:
		off := int64(8 * (f.C % 2))
		b.I(isa.OpStq, rAcc, rPtr, off)
		b.I(isa.OpLdq, rAcc3, rPtr, off)
		b.R(isa.OpXor, rAcc, rAcc, rAcc3)
	case FragBranch:
		lbl := fmt.Sprintf("dd%d", i)
		b.I(isa.OpAndi, rTmp, rAcc, 1)
		b.Branch(isa.OpBeq, rTmp, lbl)
		b.I(isa.OpAddi, rAcc, rAcc, int64(1+f.C%50))
		b.Label(lbl)
	case FragMulDiv:
		b.I(isa.OpAddi, 6, rAcc, int64(1+f.C%20))
		if f.A%2 == 0 {
			b.R(isa.OpMul, rAcc2, rAcc2, 6)
		} else {
			b.R(isa.OpDiv, rAcc2, rAcc2, 6)
		}
		b.R(isa.OpAdd, rAcc, rAcc, rAcc2)
	case FragFP:
		b.R(isa.OpCvtif, 1, rAcc, 0)
		if f.A%2 == 0 {
			b.R(isa.OpFadd, 1, 1, 1)
		} else {
			b.R(isa.OpFmul, 1, 1, 1)
		}
		b.R(isa.OpCvtfi, rAcc3, 1, 0)
		b.R(isa.OpXor, rAcc, rAcc, rAcc3)
	case FragCall:
		b.Jump(isa.OpJal, "leaf")
	case FragPopc:
		b.R(isa.OpPopc, rAcc3, rAcc, 0)
		b.R(isa.OpAdd, rAcc, rAcc, rAcc3)
	case FragUnaligned:
		// Off-word load within the current (mapped) pointer word-pair;
		// rOff <= regionBytes-16 keeps the span inside the page.
		if f.B%2 == 0 {
			b.I(isa.OpLdq, rTmp, rPtr, int64(1+f.A%7))
		} else {
			b.I(isa.OpLdl, rTmp, rPtr, int64(1+f.A%3))
		}
		b.R(isa.OpAdd, rAcc, rAcc, rTmp)
	}
}

// BuildImage assembles the program, loads it into phys under the
// requested page-table organization, initializes the data region with
// a page-indexed pattern, and pages out the FaultPct fraction under
// the program's seed. Two BuildImage calls for the same Program
// produce virtually identical address spaces (same mapped pages, same
// contents) over any physical allocator — the property the
// final-state ContentHash comparison relies on.
func (p *Program) BuildImage(phys *mem.Physical, asn uint8, org vm.PTOrg) (*vm.Image, error) {
	code, err := p.Build()
	if err != nil {
		return nil, err
	}
	as := vm.NewAddressSpace(phys, asn, maxVPN)
	if org == vm.PTTwoLevel {
		as = vm.NewAddressSpaceTwoLevel(phys, asn, maxVPN)
	}
	img := &vm.Image{Name: "fuzz", Code: code, Space: as}
	if err := img.Load(phys); err != nil {
		return nil, err
	}
	for i := 0; i < p.Knobs.Pages; i++ {
		base := DataVA + uint64(i)*vm.PageSize
		if err := as.WriteU64(base, uint64(i*37+11)); err != nil {
			return nil, err
		}
		if err := as.WriteU64(base+8, uint64(i*1009+503)); err != nil {
			return nil, err
		}
	}
	if err := as.WriteU64(ResultVA, 0); err != nil {
		return nil, err
	}
	if p.Knobs.FaultPct > 0 {
		rng := rand.New(rand.NewSource(p.Seed))
		firstVPN := DataVA >> vm.PageShift
		for i := 0; i < p.Knobs.Pages; i++ {
			if rng.Intn(100) < p.Knobs.FaultPct {
				as.UnmapPage(firstVPN + uint64(i))
			}
		}
	}
	return img, nil
}
