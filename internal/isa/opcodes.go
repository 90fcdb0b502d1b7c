// Package isa defines the instruction set of the simulated machine: a
// 64-bit RISC with 32-bit fixed-width encodings, 32 integer and 32
// floating-point registers, and a small privileged register file used
// by PAL-mode exception handlers. The ISA is deliberately Alpha-
// flavoured — conditional branches test a single register against
// zero, and software TLB fills are performed by privileged
// MFPR/TLBWR/RFE sequences — because the paper's evaluation executes
// the Alpha 21164 PALcode data-TLB miss handler.
package isa

import "fmt"

// Op enumerates every architectural opcode.
type Op uint8

// Opcode space. The numeric values are the architectural encodings
// (bits [31:24] of the instruction word) and must remain stable.
const (
	OpNop Op = iota

	// Integer register-register (R-format: rd, ra, rb).
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; divide by zero writes zero (no arithmetic trap modeled)
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpCmpEq  // rd = (ra == rb) ? 1 : 0
	OpCmpLt  // rd = (ra < rb, signed) ? 1 : 0
	OpCmpLe  // rd = (ra <= rb, signed) ? 1 : 0
	OpCmpUlt // rd = (ra < rb, unsigned) ? 1 : 0

	// Integer register-immediate (I-format: rd, ra, imm14).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpCmpEqi
	OpCmpLti
	OpLdi  // rd = signext(imm14); ra ignored
	OpLdih // rd = (ra << 14) | zeroext(imm14); constant synthesis

	// Memory (I-format: rd/data, ra base, imm14 byte displacement).
	OpLdq // load 64-bit
	OpLdl // load 32-bit, sign-extend
	OpStq // store 64-bit
	OpStl // store 32-bit
	OpLdf // load 64-bit into FP register
	OpStf // store 64-bit from FP register

	// Floating point (R-format over the FP register file).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFsqrt  // rd = sqrt(ra)
	OpCvtif  // FP rd = float64(int ra)
	OpCvtfi  // int rd = int64(FP ra)
	OpFcmpEq // int rd = (fa == fb) ? 1 : 0
	OpFcmpLt // int rd = (fa < fb) ? 1 : 0
	OpFmov   // FP rd = FP ra

	// Control (B-format: ra, disp19 words; J-format: disp24 words).
	OpBeq // branch if ra == 0
	OpBne // branch if ra != 0
	OpBlt // branch if ra < 0 (signed)
	OpBge // branch if ra >= 0 (signed)
	OpBr  // unconditional PC-relative
	OpJal // PC-relative call; links PC+4 into LR (r26)
	OpJr  // jump to ra (indirect)
	OpJalr
	OpRet // alias for Jr LR; separately encoded so the RAS can pop

	// Privileged / PAL mode.
	OpMfpr    // rd = privileged register imm14
	OpMtpr    // privileged register imm14 = ra
	OpTlbwr   // write TLB entry: va in ra, pte in rb
	OpRfe     // return from exception (to the excepting instruction)
	OpHardExc // escalate to the traditional trap mechanism
	OpHalt    // stop the thread

	// Generalized exception support (Section 6 of the paper).
	OpPopc    // rd = popcount(ra); optionally software-emulated
	OpWrtDest // write ra to the excepting instruction's destination

	numOps
)

// NumOps reports the size of the opcode space actually defined.
const NumOps = int(numOps)

var opNames = [...]string{
	OpNop: "nop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra",
	OpCmpEq: "cmpeq", OpCmpLt: "cmplt", OpCmpLe: "cmple", OpCmpUlt: "cmpult",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai",
	OpCmpEqi: "cmpeqi", OpCmpLti: "cmplti",
	OpLdi: "ldi", OpLdih: "ldih",
	OpLdq: "ldq", OpLdl: "ldl", OpStq: "stq", OpStl: "stl",
	OpLdf: "ldf", OpStf: "stf",
	OpFadd: "fadd", OpFsub: "fsub", OpFmul: "fmul", OpFdiv: "fdiv",
	OpFsqrt: "fsqrt", OpCvtif: "cvtif", OpCvtfi: "cvtfi",
	OpFcmpEq: "fcmpeq", OpFcmpLt: "fcmplt", OpFmov: "fmov",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBr: "br", OpJal: "jal", OpJr: "jr", OpJalr: "jalr", OpRet: "ret",
	OpMfpr: "mfpr", OpMtpr: "mtpr", OpTlbwr: "tlbwr", OpRfe: "rfe",
	OpHardExc: "hardexc", OpHalt: "halt",
	OpPopc: "popc", OpWrtDest: "wrtdest",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class partitions opcodes by the functional unit and scheduling
// behaviour they require.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPAdd // add/sub/compare/convert/move
	ClassFPMul
	ClassFPDiv // divide and square root
	ClassLoad
	ClassStore
	ClassBranch // conditional, PC-relative
	ClassJump   // unconditional, calls, returns, indirect
	ClassPriv   // MFPR/MTPR/TLBWR
	ClassRfe
	ClassHardExc
	ClassHalt
)

var opClasses = [...]Class{
	OpNop: ClassNop,
	OpAdd: ClassIntALU, OpSub: ClassIntALU, OpAnd: ClassIntALU,
	OpOr: ClassIntALU, OpXor: ClassIntALU, OpSll: ClassIntALU,
	OpSrl: ClassIntALU, OpSra: ClassIntALU, OpCmpEq: ClassIntALU,
	OpCmpLt: ClassIntALU, OpCmpLe: ClassIntALU, OpCmpUlt: ClassIntALU,
	OpMul: ClassIntMul, OpDiv: ClassIntDiv,
	OpAddi: ClassIntALU, OpAndi: ClassIntALU, OpOri: ClassIntALU,
	OpXori: ClassIntALU, OpSlli: ClassIntALU, OpSrli: ClassIntALU,
	OpSrai: ClassIntALU, OpCmpEqi: ClassIntALU, OpCmpLti: ClassIntALU,
	OpLdi: ClassIntALU, OpLdih: ClassIntALU,
	OpLdq: ClassLoad, OpLdl: ClassLoad, OpLdf: ClassLoad,
	OpStq: ClassStore, OpStl: ClassStore, OpStf: ClassStore,
	OpFadd: ClassFPAdd, OpFsub: ClassFPAdd, OpFcmpEq: ClassFPAdd,
	OpFcmpLt: ClassFPAdd, OpCvtif: ClassFPAdd, OpCvtfi: ClassFPAdd,
	OpFmov: ClassFPAdd,
	OpFmul: ClassFPMul,
	OpFdiv: ClassFPDiv, OpFsqrt: ClassFPDiv,
	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch,
	OpBge: ClassBranch,
	OpBr:  ClassJump, OpJal: ClassJump, OpJr: ClassJump,
	OpJalr: ClassJump, OpRet: ClassJump,
	OpMfpr: ClassPriv, OpMtpr: ClassPriv, OpTlbwr: ClassPriv,
	OpRfe: ClassRfe, OpHardExc: ClassHardExc, OpHalt: ClassHalt,
	OpPopc: ClassIntALU, OpWrtDest: ClassPriv,
}

// ClassOf reports the instruction class of an opcode.
func ClassOf(o Op) Class {
	if int(o) < len(opClasses) {
		return opClasses[o]
	}
	return ClassNop
}

// Format describes how an opcode's operands are encoded.
type Format uint8

// Encoding formats.
const (
	FmtR Format = iota // rd[23:19] ra[18:14] rb[13:9]
	FmtI               // rd[23:19] ra[18:14] imm14[13:0] signed
	FmtB               // ra[23:19] disp19[18:0] signed word displacement
	FmtJ               // disp24[23:0] signed word displacement
	FmtN               // no operands
)

var opFormats = [...]Format{
	OpNop: FmtN,
	OpAdd: FmtR, OpSub: FmtR, OpMul: FmtR, OpDiv: FmtR,
	OpAnd: FmtR, OpOr: FmtR, OpXor: FmtR,
	OpSll: FmtR, OpSrl: FmtR, OpSra: FmtR,
	OpCmpEq: FmtR, OpCmpLt: FmtR, OpCmpLe: FmtR, OpCmpUlt: FmtR,
	OpAddi: FmtI, OpAndi: FmtI, OpOri: FmtI, OpXori: FmtI,
	OpSlli: FmtI, OpSrli: FmtI, OpSrai: FmtI,
	OpCmpEqi: FmtI, OpCmpLti: FmtI, OpLdi: FmtI, OpLdih: FmtI,
	OpLdq: FmtI, OpLdl: FmtI, OpStq: FmtI, OpStl: FmtI,
	OpLdf: FmtI, OpStf: FmtI,
	OpFadd: FmtR, OpFsub: FmtR, OpFmul: FmtR, OpFdiv: FmtR,
	OpFsqrt: FmtR, OpCvtif: FmtR, OpCvtfi: FmtR,
	OpFcmpEq: FmtR, OpFcmpLt: FmtR, OpFmov: FmtR,
	OpBeq: FmtB, OpBne: FmtB, OpBlt: FmtB, OpBge: FmtB,
	OpBr: FmtJ, OpJal: FmtJ,
	OpJr: FmtR, OpJalr: FmtR, OpRet: FmtN,
	OpMfpr: FmtI, OpMtpr: FmtI, OpTlbwr: FmtR,
	OpRfe: FmtN, OpHardExc: FmtN, OpHalt: FmtN,
	OpPopc: FmtR, OpWrtDest: FmtR,
}

// FormatOf reports the encoding format of an opcode.
func FormatOf(o Op) Format {
	if int(o) < len(opFormats) {
		return opFormats[o]
	}
	return FmtN
}

// Valid reports whether o names a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsControl reports whether the opcode can redirect fetch.
func (o Op) IsControl() bool {
	c := ClassOf(o)
	return c == ClassBranch || c == ClassJump || c == ClassRfe
}

// IsFPOp reports whether the opcode's register operands name the FP
// register file. Loads/stores to FP registers are classified by
// LdfStf handling in the decoder, not here.
func (o Op) IsFPOp() bool {
	c := ClassOf(o)
	return c == ClassFPAdd || c == ClassFPMul || c == ClassFPDiv
}
