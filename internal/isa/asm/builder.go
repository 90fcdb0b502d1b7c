// Package asm provides a programmatic instruction builder and a text
// assembler/disassembler for the mtexc ISA. The builder is the
// primary interface: workload generators and the PAL handler code
// generator emit instruction sequences with symbolic labels that are
// resolved to PC-relative displacements at Finish time.
package asm

import (
	"fmt"

	"mtexc/internal/isa"
)

// Builder accumulates an instruction sequence with symbolic branch
// targets.
type Builder struct {
	insts  []isa.Instruction
	labels map[string]int
	fixups []fixup
	err    error
}

type fixup struct {
	index int
	label string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Len reports the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label binds name to the address of the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.insts)
}

// Emit appends a fully formed instruction.
func (b *Builder) Emit(in isa.Instruction) {
	b.insts = append(b.insts, in)
}

// LabelIndex reports the instruction index a label is bound to.
// Valid once the label has been placed; used by program generators to
// materialize jump tables of code addresses.
func (b *Builder) LabelIndex(name string) (int, bool) {
	i, ok := b.labels[name]
	return i, ok
}

// R emits a register-format instruction.
func (b *Builder) R(op isa.Op, rd, ra, rb uint8) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// I emits an immediate-format instruction.
func (b *Builder) I(op isa.Op, rd, ra uint8, imm int64) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Branch emits a conditional branch to a label.
func (b *Builder) Branch(op isa.Op, ra uint8, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Emit(isa.Instruction{Op: op, Ra: ra})
}

// Jump emits an unconditional BR or JAL to a label.
func (b *Builder) Jump(op isa.Op, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Emit(isa.Instruction{Op: op})
}

// LoadImm emits the shortest LDI/LDIH sequence that materializes v
// into integer register rd (one to five instructions).
func (b *Builder) LoadImm(rd uint8, v uint64) {
	// A value fits in k chunks when its top chunk is at most MaxImm
	// (so the initial LDI sign bit is clear) and all remaining bits
	// are covered by k-1 LDIH appends of 14 bits each.
	if int64(v) >= isa.MinImm && int64(v) <= isa.MaxImm {
		b.I(isa.OpLdi, rd, 0, int64(v))
		return
	}
	// k = 5 always succeeds: the top chunk is then v>>56 <= 255.
	for k := 2; ; k++ {
		shift := uint(14 * (k - 1))
		top := v >> shift
		if top <= uint64(isa.MaxImm) {
			b.I(isa.OpLdi, rd, 0, int64(top))
			for i := k - 2; i >= 0; i-- {
				// LDIH's immediate field holds a raw 14-bit chunk;
				// it travels through the signed imm14 encoding and
				// is re-masked to 14 bits by the LDIH datapath.
				chunk := v >> (uint(i) * 14) & (1<<14 - 1)
				b.I(isa.OpLdih, rd, rd, signExtend14(chunk))
			}
			return
		}
	}
}

// signExtend14 converts a raw 14-bit chunk to the signed value that
// encodes to the same bit pattern in an imm14 field.
func signExtend14(chunk uint64) int64 {
	return int64(chunk<<50) >> 50
}

// Move emits rd = ra.
func (b *Builder) Move(rd, ra uint8) {
	b.R(isa.OpAdd, rd, ra, isa.RegZero)
}

// Finish resolves all label fixups and returns the instruction
// sequence. The Builder must not be reused afterwards.
func (b *Builder) Finish() ([]isa.Instruction, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		disp := int64(target - (f.index + 1))
		in := &b.insts[f.index]
		switch isa.FormatOf(in.Op) {
		case isa.FmtB:
			if disp < isa.MinDispB || disp > isa.MaxDispB {
				return nil, fmt.Errorf("asm: branch to %q out of range (%d words)", f.label, disp)
			}
		case isa.FmtJ:
			if disp < isa.MinDispJ || disp > isa.MaxDispJ {
				return nil, fmt.Errorf("asm: jump to %q out of range (%d words)", f.label, disp)
			}
		default:
			return nil, fmt.Errorf("asm: fixup on non-control opcode %v", in.Op)
		}
		in.Imm = disp
	}
	insts := b.insts
	b.insts = nil
	return insts, nil
}

// MustFinish is Finish that panics on error; for statically known
// sequences such as the PAL handler.
func (b *Builder) MustFinish() []isa.Instruction {
	insts, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return insts
}

// EncodeAll encodes a sequence into architectural 32-bit words.
func EncodeAll(insts []isa.Instruction) ([]uint32, error) {
	words := make([]uint32, len(insts))
	for i, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("asm: instruction %d: %w", i, err)
		}
		words[i] = w
	}
	return words, nil
}

// DecodeAll decodes architectural words back into instructions.
func DecodeAll(words []uint32) ([]isa.Instruction, error) {
	insts := make([]isa.Instruction, len(words))
	for i, w := range words {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("asm: word %d: %w", i, err)
		}
		insts[i] = in
	}
	return insts, nil
}
