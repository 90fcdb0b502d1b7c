package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpcodeTablesComplete(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		// Every defined opcode must have a format entry (FmtR is the
		// zero value, so check the table length explicitly).
		if int(op) >= len(opFormats) {
			t.Errorf("opcode %v missing format entry", op)
		}
		if int(op) >= len(opClasses) {
			t.Errorf("opcode %v missing class entry", op)
		}
	}
}

func TestEncodeDecodeRoundTripAllFormats(t *testing.T) {
	cases := []Instruction{
		{Op: OpNop},
		{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpAddi, Rd: 4, Ra: 5, Imm: -42},
		{Op: OpAddi, Rd: 4, Ra: 5, Imm: MaxImm},
		{Op: OpAddi, Rd: 4, Ra: 5, Imm: MinImm},
		{Op: OpLdq, Rd: 7, Ra: 30, Imm: 16},
		{Op: OpStq, Rd: 7, Ra: 30, Imm: -8},
		{Op: OpBeq, Ra: 9, Imm: -100},
		{Op: OpBne, Ra: 9, Imm: MaxDispB},
		{Op: OpBr, Imm: MinDispJ},
		{Op: OpJal, Imm: 1234},
		{Op: OpJr, Ra: 26},
		{Op: OpRet},
		{Op: OpMfpr, Rd: 1, Imm: int64(PrFaultVA)},
		{Op: OpMtpr, Ra: 2, Imm: int64(PrPTBase)},
		{Op: OpTlbwr, Ra: 1, Rb: 5},
		{Op: OpRfe},
		{Op: OpHardExc},
		{Op: OpFadd, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpCvtfi, Rd: 4, Ra: 5},
		{Op: OpLdf, Rd: 6, Ra: 7, Imm: 24},
		{Op: OpHalt},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %v (%#x): %v", in, w, err)
		}
		if got != in {
			t.Errorf("round trip: got %v want %v", got, in)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Instruction{
		{Op: OpAddi, Rd: 1, Imm: MaxImm + 1},
		{Op: OpAddi, Rd: 1, Imm: MinImm - 1},
		{Op: OpBeq, Ra: 1, Imm: MaxDispB + 1},
		{Op: OpBr, Imm: MinDispJ - 1},
		{Op: Op(200)},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) succeeded, want error", in)
		}
	}
}

func TestDecodeRejectsUndefinedOpcode(t *testing.T) {
	if _, err := Decode(uint32(NumOps) << 24); err == nil {
		t.Error("decoding an undefined opcode byte succeeded")
	}
}

// TestEncodeDecodeQuick property: any instruction with in-range
// fields round-trips exactly.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(opRaw uint8, rd, ra, rb uint8, immRaw int16) bool {
		op := Op(int(opRaw) % NumOps)
		in := Instruction{Op: op}
		switch FormatOf(op) {
		case FmtR:
			in.Rd, in.Ra, in.Rb = rd%32, ra%32, rb%32
		case FmtI:
			in.Rd, in.Ra = rd%32, ra%32
			in.Imm = int64(immRaw) % (MaxImm + 1)
		case FmtB:
			in.Ra = ra % 32
			in.Imm = int64(immRaw)
		case FmtJ:
			in.Imm = int64(immRaw)
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func negU(x int64) uint64 { return uint64(-x) }

func TestEvalIntOp(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, ^uint64(0)},
		{OpMul, 7, 6, 42},
		{OpDiv, 42, 6, 7},
		{OpDiv, 42, 0, 0},
		{OpDiv, negU(42), 6, negU(7)},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpSll, 1, 8, 256},
		{OpSll, 1, 64, 1}, // shift amount masked to 6 bits
		{OpSrl, 256, 8, 1},
		{OpSra, negU(256), 8, negU(1)},
		{OpSrl, negU(256), 60, 15},
		{OpCmpEq, 5, 5, 1},
		{OpCmpEq, 5, 6, 0},
		{OpCmpLt, negU(1), 0, 1},
		{OpCmpUlt, negU(1), 0, 0},
		{OpCmpLe, 5, 5, 1},
		{OpLdi, 99, 123, 123},
		{OpLdih, 1, 5, 1<<14 | 5},
	}
	for _, c := range cases {
		if got := EvalIntOp(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalIntOp(%v, %d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalFPOp(t *testing.T) {
	bits := math.Float64bits
	if got := EvalFPOp(OpFadd, bits(1.5), bits(2.25)); got != bits(3.75) {
		t.Errorf("fadd: got %v", math.Float64frombits(got))
	}
	if got := EvalFPOp(OpFmul, bits(3), bits(4)); got != bits(12) {
		t.Errorf("fmul: got %v", math.Float64frombits(got))
	}
	if got := EvalFPOp(OpFsqrt, bits(81), 0); got != bits(9) {
		t.Errorf("fsqrt: got %v", math.Float64frombits(got))
	}
	if got := EvalFPOp(OpCvtif, negU(7), 0); got != bits(-7) {
		t.Errorf("cvtif: got %v", math.Float64frombits(got))
	}
	if got := EvalFPOp(OpCvtfi, bits(-7.9), 0); int64(got) != -7 {
		t.Errorf("cvtfi: got %d", int64(got))
	}
	if got := EvalFPOp(OpFcmpLt, bits(1), bits(2)); got != 1 {
		t.Errorf("fcmplt(1,2): got %d", got)
	}
	if got := EvalFPOp(OpFcmpEq, bits(2), bits(2)); got != 1 {
		t.Errorf("fcmpeq(2,2): got %d", got)
	}
}

func TestBranchTaken(t *testing.T) {
	neg := negU(5)
	cases := []struct {
		op   Op
		a    uint64
		want bool
	}{
		{OpBeq, 0, true}, {OpBeq, 1, false},
		{OpBne, 0, false}, {OpBne, 1, true},
		{OpBlt, neg, true}, {OpBlt, 0, false}, {OpBlt, 5, false},
		{OpBge, neg, false}, {OpBge, 0, true}, {OpBge, 5, true},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a); got != c.want {
			t.Errorf("BranchTaken(%v, %d) = %v, want %v", c.op, c.a, got, c.want)
		}
	}
}

func TestRegFileZeroRegister(t *testing.T) {
	var rf RegFile
	rf.WriteInt(RegZero, 0xdead)
	if got := rf.ReadInt(RegZero); got != 0 {
		t.Errorf("r31 = %d after write, want 0", got)
	}
	rf.WriteInt(5, 42)
	if got := rf.ReadInt(5); got != 42 {
		t.Errorf("r5 = %d, want 42", got)
	}
}

func TestSourceDestExtraction(t *testing.T) {
	intSrcs := func(in Instruction) []uint8 {
		srcs, n := in.IntSrcRegs()
		return srcs[:n]
	}
	fpSrcs := func(in Instruction) []uint8 {
		srcs, n := in.FPSrcRegs()
		return srcs[:n]
	}
	// Store reads both base and data registers.
	st := Instruction{Op: OpStq, Rd: 3, Ra: 7, Imm: 8}
	srcs := intSrcs(st)
	if len(srcs) != 2 || srcs[0] != 7 || srcs[1] != 3 {
		t.Errorf("store sources = %v, want [7 3]", srcs)
	}
	// RET reads the link register.
	ret := Instruction{Op: OpRet}
	srcs = intSrcs(ret)
	if len(srcs) != 1 || srcs[0] != RegLR {
		t.Errorf("ret sources = %v, want [%d]", srcs, RegLR)
	}
	// TLBWR reads both operands.
	tw := Instruction{Op: OpTlbwr, Ra: 1, Rb: 5}
	srcs = intSrcs(tw)
	if len(srcs) != 2 {
		t.Errorf("tlbwr sources = %v, want two registers", srcs)
	}
	// FP add reads two FP regs, no int regs involved.
	fa := Instruction{Op: OpFadd, Rd: 1, Ra: 2, Rb: 3}
	if len(intSrcs(fa)) != 0 {
		t.Errorf("fadd int sources = %v, want none", intSrcs(fa))
	}
	if fps := fpSrcs(fa); len(fps) != 2 {
		t.Errorf("fadd fp sources = %v, want two", fps)
	}
	// STF reads its FP data register and int base.
	stf := Instruction{Op: OpStf, Rd: 2, Ra: 9}
	if fps := fpSrcs(stf); len(fps) != 1 || fps[0] != 2 {
		t.Errorf("stf fp sources = %v, want [2]", fps)
	}
	if srcs := intSrcs(stf); len(srcs) != 1 || srcs[0] != 9 {
		t.Errorf("stf int sources = %v, want [9]", srcs)
	}
}

func TestMemBytes(t *testing.T) {
	if MemBytes(OpLdq) != 8 || MemBytes(OpStq) != 8 || MemBytes(OpLdf) != 8 {
		t.Error("64-bit ops must report 8 bytes")
	}
	if MemBytes(OpLdl) != 4 || MemBytes(OpStl) != 4 {
		t.Error("32-bit ops must report 4 bytes")
	}
	if MemBytes(OpAdd) != 0 {
		t.Error("non-memory op must report 0")
	}
}

func TestInstructionStringSmoke(t *testing.T) {
	cases := []Instruction{
		{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpLdq, Rd: 1, Ra: 2, Imm: 8},
		{Op: OpBeq, Ra: 4, Imm: -2},
		{Op: OpMfpr, Rd: 1, Imm: int64(PrFaultVA)},
		{Op: OpFadd, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpRet},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Errorf("empty String() for %#v", in)
		}
	}
}
