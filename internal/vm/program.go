package vm

import (
	"fmt"

	"mtexc/internal/isa"
	"mtexc/internal/isa/asm"
	"mtexc/internal/mem"
)

// Image is a loadable program: code, an address space, an entry
// point, and initial register values. Workload generators produce
// Images; the loader places them into simulated physical memory.
type Image struct {
	Name    string
	Code    []isa.Instruction
	CodeVA  uint64 // virtual base of the code segment
	CodePA  uint64 // physical base after loading
	EntryVA uint64
	Space   *AddressSpace
	// InitInt seeds integer registers at thread start (index = reg).
	InitInt map[uint8]uint64
	// InitFP seeds FP registers (raw float64 bits).
	InitFP map[uint8]uint64

	// codeFrames holds the frame of each code page from CodeVA on,
	// fixed by Load like CodePA; InstPA reads it instead of
	// translating every fetched instruction.
	codeFrames []uint64
}

// Conventional layout for generated programs.
const (
	DefaultCodeVA  = uint64(0x0001_0000)
	DefaultDataVA  = uint64(0x1000_0000)
	DefaultStackVA = uint64(0x7fff_0000)
)

// Load writes the image's encoded code into freshly mapped physical
// pages and records the physical base used for instruction-cache
// indexing. It must be called once before the image runs.
func (img *Image) Load(phys *mem.Physical) error {
	if img.Space == nil {
		return fmt.Errorf("vm: image %q has no address space", img.Name)
	}
	if img.CodeVA == 0 {
		img.CodeVA = DefaultCodeVA
	}
	if img.EntryVA == 0 {
		img.EntryVA = img.CodeVA
	}
	words, err := asm.EncodeAll(img.Code)
	if err != nil {
		return fmt.Errorf("vm: encoding image %q: %w", img.Name, err)
	}
	for i, w := range words {
		va := img.CodeVA + uint64(i)*4
		if err := img.Space.WriteU32(va, w); err != nil {
			return err
		}
	}
	pa, ok := img.Space.Translate(img.CodeVA)
	if !ok {
		return fmt.Errorf("vm: image %q code page not mapped after load", img.Name)
	}
	img.CodePA = pa
	img.codeFrames = nil
	for va := img.CodeVA &^ (PageSize - 1); va < img.CodeVA+uint64(len(words))*4; va += PageSize {
		pa, ok := img.Space.Translate(va)
		if !ok {
			break
		}
		img.codeFrames = append(img.codeFrames, pa>>PageShift)
	}
	return nil
}

// FetchInst returns the decoded instruction at va, or false when va
// is outside the code segment (wrong-path fetch runs off the end).
func (img *Image) FetchInst(va uint64) (isa.Instruction, bool) {
	if va < img.CodeVA || (va-img.CodeVA)%4 != 0 {
		return isa.Instruction{}, false
	}
	idx := (va - img.CodeVA) / 4
	if idx >= uint64(len(img.Code)) {
		return isa.Instruction{}, false
	}
	return img.Code[idx], true
}

// InstPA maps a code VA to the physical address used for I-cache
// timing: the code page's frame as Load found it. An address outside
// the loaded code pages falls back to page-accurate translation, then
// to an offset from CodePA.
func (img *Image) InstPA(va uint64) uint64 {
	if i := va>>PageShift - img.CodeVA>>PageShift; va >= img.CodeVA && i < uint64(len(img.codeFrames)) {
		return img.codeFrames[i]<<PageShift | va&(PageSize-1)
	}
	if pa, ok := img.Space.Translate(va); ok {
		return pa
	}
	return img.CodePA + (va - img.CodeVA)
}

// IsPALVA reports whether va falls in the PAL region.
func IsPALVA(va uint64) bool { return va >= PALBaseVA }
