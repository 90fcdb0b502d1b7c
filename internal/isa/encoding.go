package isa

import "fmt"

// Instruction is a decoded instruction. Rd/Ra/Rb name registers in
// the integer or FP file depending on the opcode; Imm carries the
// sign-extended immediate for I-format instructions and the word
// displacement for B/J-format control transfers.
type Instruction struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Imm int64
}

// Field widths and limits of the 32-bit encodings.
const (
	immBits  = 14
	dispB    = 19
	dispJ    = 24
	MaxImm   = 1<<(immBits-1) - 1    // 8191
	MinImm   = -(1 << (immBits - 1)) // -8192
	MaxDispB = 1<<(dispB-1) - 1
	MinDispB = -(1 << (dispB - 1))
	MaxDispJ = 1<<(dispJ-1) - 1
	MinDispJ = -(1 << (dispJ - 1))
)

// Encode packs the instruction into its 32-bit architectural word.
// It returns an error if a field is out of range for the opcode's
// format.
func Encode(in Instruction) (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Rd >= 32 || in.Ra >= 32 || in.Rb >= 32 {
		return 0, fmt.Errorf("isa: register out of range in %v", in)
	}
	w := uint32(in.Op) << 24
	switch FormatOf(in.Op) {
	case FmtR:
		w |= uint32(in.Rd) << 19
		w |= uint32(in.Ra) << 14
		w |= uint32(in.Rb) << 9
	case FmtI:
		if in.Imm < MinImm || in.Imm > MaxImm {
			return 0, fmt.Errorf("isa: immediate %d out of range for %v", in.Imm, in.Op)
		}
		w |= uint32(in.Rd) << 19
		w |= uint32(in.Ra) << 14
		w |= uint32(in.Imm) & (1<<immBits - 1)
	case FmtB:
		if in.Imm < MinDispB || in.Imm > MaxDispB {
			return 0, fmt.Errorf("isa: branch displacement %d out of range", in.Imm)
		}
		w |= uint32(in.Ra) << 19
		w |= uint32(in.Imm) & (1<<dispB - 1)
	case FmtJ:
		if in.Imm < MinDispJ || in.Imm > MaxDispJ {
			return 0, fmt.Errorf("isa: jump displacement %d out of range", in.Imm)
		}
		w |= uint32(in.Imm) & (1<<dispJ - 1)
	case FmtN:
		// opcode only
	}
	return w, nil
}

// Decode unpacks a 32-bit architectural word. Decoding never fails
// for defined opcodes; undefined opcode bytes return an error.
func Decode(w uint32) (Instruction, error) {
	op := Op(w >> 24)
	if !op.Valid() {
		return Instruction{}, fmt.Errorf("isa: undefined opcode byte %#02x", w>>24)
	}
	in := Instruction{Op: op}
	switch FormatOf(op) {
	case FmtR:
		in.Rd = uint8(w >> 19 & 31)
		in.Ra = uint8(w >> 14 & 31)
		in.Rb = uint8(w >> 9 & 31)
	case FmtI:
		in.Rd = uint8(w >> 19 & 31)
		in.Ra = uint8(w >> 14 & 31)
		in.Imm = signExtend(uint64(w&(1<<immBits-1)), immBits)
	case FmtB:
		in.Ra = uint8(w >> 19 & 31)
		in.Imm = signExtend(uint64(w&(1<<dispB-1)), dispB)
	case FmtJ:
		in.Imm = signExtend(uint64(w&(1<<dispJ-1)), dispJ)
	}
	return in, nil
}

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	fp := in.Op.IsFPOp()
	reg := IntRegName
	if fp {
		reg = FPRegName
	}
	switch FormatOf(in.Op) {
	case FmtR:
		switch in.Op {
		case OpJr, OpJalr, OpWrtDest:
			return fmt.Sprintf("%s %s", in.Op, IntRegName(in.Ra))
		case OpTlbwr:
			return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(in.Ra), IntRegName(in.Rb))
		case OpFsqrt, OpFmov:
			return fmt.Sprintf("%s %s, %s", in.Op, reg(in.Rd), reg(in.Ra))
		case OpPopc:
			return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(in.Rd), IntRegName(in.Ra))
		case OpCvtif:
			return fmt.Sprintf("%s %s, %s", in.Op, FPRegName(in.Rd), IntRegName(in.Ra))
		case OpCvtfi:
			return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(in.Rd), FPRegName(in.Ra))
		case OpFcmpEq, OpFcmpLt:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, IntRegName(in.Rd), FPRegName(in.Ra), FPRegName(in.Rb))
		default:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, reg(in.Rd), reg(in.Ra), reg(in.Rb))
		}
	case FmtI:
		switch in.Op {
		case OpLdq, OpLdl, OpStq, OpStl:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, IntRegName(in.Rd), in.Imm, IntRegName(in.Ra))
		case OpLdf, OpStf:
			return fmt.Sprintf("%s %s, %d(%s)", in.Op, FPRegName(in.Rd), in.Imm, IntRegName(in.Ra))
		case OpLdi:
			return fmt.Sprintf("%s %s, %d", in.Op, IntRegName(in.Rd), in.Imm)
		case OpMfpr:
			return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(in.Rd), PrivReg(in.Imm))
		case OpMtpr:
			return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(in.Ra), PrivReg(in.Imm))
		default:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, IntRegName(in.Rd), IntRegName(in.Ra), in.Imm)
		}
	case FmtB:
		return fmt.Sprintf("%s %s, %d", in.Op, IntRegName(in.Ra), in.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	default:
		return in.Op.String()
	}
}

// IntSrcRegs reports the integer registers the instruction reads (up
// to two, RegZero excluded) without allocating: the registers occupy
// srcs[:n].
func (in Instruction) IntSrcRegs() (srcs [2]uint8, n int) {
	add := func(r uint8) {
		if r != RegZero {
			srcs[n] = r
			n++
		}
	}
	switch in.Op {
	case OpNop, OpLdi, OpBr, OpJal, OpRfe, OpHardExc, OpHalt, OpMfpr:
		return srcs, 0
	case OpRet:
		add(RegLR)
		return srcs, n
	case OpJr, OpJalr, OpMtpr, OpWrtDest:
		add(in.Ra)
		return srcs, n
	case OpTlbwr:
		add(in.Ra)
		add(in.Rb)
		return srcs, n
	case OpCvtif, OpPopc:
		add(in.Ra)
		return srcs, n
	case OpFcmpEq, OpFcmpLt, OpCvtfi, OpFadd, OpFsub, OpFmul, OpFdiv, OpFsqrt, OpFmov:
		return srcs, 0
	case OpLdf:
		add(in.Ra) // base address
		return srcs, n
	case OpStf:
		add(in.Ra) // base address; data comes from FP
		return srcs, n
	}
	switch FormatOf(in.Op) {
	case FmtR:
		add(in.Ra)
		add(in.Rb)
	case FmtI:
		add(in.Ra)
		if in.Op == OpStq || in.Op == OpStl {
			add(in.Rd) // store data register
		}
	case FmtB:
		add(in.Ra)
	}
	return srcs, n
}

// FPSrcRegs reports the FP registers the instruction reads without
// allocating: the registers occupy srcs[:n].
func (in Instruction) FPSrcRegs() (srcs [2]uint8, n int) {
	switch in.Op {
	case OpFadd, OpFsub, OpFmul, OpFdiv, OpFcmpEq, OpFcmpLt:
		return [2]uint8{in.Ra, in.Rb}, 2
	case OpFsqrt, OpFmov, OpCvtfi:
		return [2]uint8{in.Ra}, 1
	case OpStf:
		return [2]uint8{in.Rd}, 1
	}
	return srcs, 0
}
