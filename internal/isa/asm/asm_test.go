package asm

import (
	"strings"
	"testing"
	"testing/quick"

	"mtexc/internal/isa"
)

func TestBuilderBranchResolution(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.I(isa.OpAddi, 1, 1, 1)      // 0
	b.Branch(isa.OpBne, 1, "top") // 1 -> disp -2
	b.Jump(isa.OpBr, "end")       // 2 -> disp +0? end at 3: 3-(2+1)=0
	b.Label("end")
	b.Emit(isa.Instruction{Op: isa.OpNop}) // 3
	insts, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if insts[1].Imm != -2 {
		t.Errorf("backward branch disp = %d, want -2", insts[1].Imm)
	}
	if insts[2].Imm != 0 {
		t.Errorf("forward jump disp = %d, want 0", insts[2].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jump(isa.OpBr, "nowhere")
	if _, err := b.Finish(); err == nil {
		t.Error("undefined label not reported")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Emit(isa.Instruction{Op: isa.OpNop})
	b.Label("x")
	if _, err := b.Finish(); err == nil {
		t.Error("duplicate label not reported")
	}
}

func negU(x int64) uint64 { return uint64(-x) }

// evalLoadImm interprets an LDI/LDIH sequence to verify expansion.
func evalLoadImm(t *testing.T, insts []isa.Instruction, rd uint8) uint64 {
	t.Helper()
	var regs [32]uint64
	for _, in := range insts {
		switch in.Op {
		case isa.OpLdi:
			regs[in.Rd] = uint64(in.Imm)
		case isa.OpLdih:
			regs[in.Rd] = isa.EvalIntOp(isa.OpLdih, regs[in.Ra], uint64(in.Imm))
		default:
			t.Fatalf("unexpected op %v in LoadImm expansion", in.Op)
		}
	}
	return regs[rd]
}

func TestLoadImmExactValues(t *testing.T) {
	cases := []uint64{
		0, 1, 42, 8191, 8192, 0xffff, 1 << 20, 1 << 27, 1 << 28,
		0xdeadbeef, 1 << 40, 0x0001_0000, 0x1000_0000,
		^uint64(0), 0x8000_0000_0000_0000, uint64(1)<<63 | 12345,
		negU(1), negU(8192), negU(8193),
	}
	for _, v := range cases {
		b := NewBuilder()
		b.LoadImm(5, v)
		insts, err := b.Finish()
		if err != nil {
			t.Fatalf("LoadImm(%#x): %v", v, err)
		}
		if len(insts) > 5 {
			t.Errorf("LoadImm(%#x) used %d instructions, want <= 5", v, len(insts))
		}
		if got := evalLoadImm(t, insts, 5); got != v {
			t.Errorf("LoadImm(%#x) produced %#x", v, got)
		}
		// All expansion instructions must encode.
		if _, err := EncodeAll(insts); err != nil {
			t.Errorf("LoadImm(%#x) does not encode: %v", v, err)
		}
	}
}

func TestLoadImmQuick(t *testing.T) {
	f := func(v uint64) bool {
		b := NewBuilder()
		b.LoadImm(3, v)
		insts, err := b.Finish()
		if err != nil {
			return false
		}
		if _, err := EncodeAll(insts); err != nil {
			return false
		}
		return evalLoadImm(t, insts, 3) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLoadImmSmallUsesOneInstruction(t *testing.T) {
	b := NewBuilder()
	b.LoadImm(1, 100)
	insts := b.MustFinish()
	if len(insts) != 1 {
		t.Errorf("LoadImm(100) used %d instructions, want 1", len(insts))
	}
	b = NewBuilder()
	b.LoadImm(1, negU(5))
	insts = b.MustFinish()
	if len(insts) != 1 {
		t.Errorf("LoadImm(-5) used %d instructions, want 1", len(insts))
	}
}

func TestAssembleBasicProgram(t *testing.T) {
	src := `
		; simple counting loop
		ldi   r1, 10
		ldi   r2, 0
	loop:
		addi  r2, r2, 1
		addi  r1, r1, -1
		bne   r1, loop
		halt
	`
	insts, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(insts))
	}
	if insts[4].Op != isa.OpBne || insts[4].Imm != -3 {
		t.Errorf("bne = %v, want disp -3", insts[4])
	}
	if insts[5].Op != isa.OpHalt {
		t.Errorf("last inst = %v, want halt", insts[5])
	}
}

func TestAssembleMemoryAndPriv(t *testing.T) {
	src := `
		ldq   r5, 16(r2)
		stq   r5, -8(sp)
		ldf   f1, 0(r3)
		stf   f1, 8(r3)
		mfpr  r1, faultva
		mtpr  r2, ptbase
		tlbwr r1, r5
		rfe
	`
	insts, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Op != isa.OpLdq || insts[0].Rd != 5 || insts[0].Ra != 2 || insts[0].Imm != 16 {
		t.Errorf("ldq = %+v", insts[0])
	}
	if insts[1].Ra != isa.RegSP || insts[1].Imm != -8 {
		t.Errorf("stq = %+v", insts[1])
	}
	if insts[4].Op != isa.OpMfpr || insts[4].Imm != int64(isa.PrFaultVA) {
		t.Errorf("mfpr = %+v", insts[4])
	}
	if insts[5].Op != isa.OpMtpr || insts[5].Ra != 2 || insts[5].Imm != int64(isa.PrPTBase) {
		t.Errorf("mtpr = %+v", insts[5])
	}
	if insts[6].Op != isa.OpTlbwr || insts[6].Ra != 1 || insts[6].Rb != 5 {
		t.Errorf("tlbwr = %+v", insts[6])
	}
}

func TestAssemblePseudoOps(t *testing.T) {
	insts, err := Assemble("limm r4, 0x123456789abc\nmov r1, r2\n")
	if err != nil {
		t.Fatal(err)
	}
	// The limm expansion is everything before the final mov.
	mov := insts[len(insts)-1]
	if mov.Op != isa.OpAdd || mov.Rd != 1 || mov.Ra != 2 || mov.Rb != isa.RegZero {
		t.Errorf("mov expansion = %+v", mov)
	}
	if got := evalLoadImm(t, insts[:len(insts)-1], 4); got != 0x123456789abc {
		t.Errorf("limm produced %#x", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",
		"add r1, r2",
		"add r1, r2, r99",
		"ldq r1, 16",
		"beq r1",
		"mfpr r1, nosuchreg",
		"bad label: nop",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

// TestAssembleImmediateRange: numeric operands are checked against
// their encoding field, so a source the assembler accepts always
// encodes; the field bounds themselves assemble.
func TestAssembleImmediateRange(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{"ldi r0,10000", false},
		{"addi r1, r1, 9000", false},
		{"ldq r3, 9000(sp)", false},
		{"stq r3, -8193(r2)", false},
		{"ldi r1, -8193", false},
		{"beq r1, 262144", false},
		{"br -8388609", false},
		{"ldi r1, 8191", true},
		{"addi r1, r1, -8192", true},
		{"ldq r3, -8192(sp)", true},
		{"beq r1, -262144", true},
		{"br 8388607", true},
		{"limm r1, 10000", true},
	} {
		insts, err := Assemble(tc.src)
		if (err == nil) != tc.ok {
			t.Errorf("Assemble(%q) error = %v, want ok=%v", tc.src, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if _, err := EncodeAll(insts); err != nil {
			t.Errorf("Assemble(%q) accepted an unencodable program: %v", tc.src, err)
		}
	}
}

func TestAssembleFPOps(t *testing.T) {
	src := `
		fadd  f1, f2, f3
		fsqrt f4, f1
		cvtif f5, r1
		cvtfi r2, f5
		fcmplt r3, f1, f2
	`
	insts, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Op != isa.OpFadd || insts[0].Rd != 1 {
		t.Errorf("fadd = %+v", insts[0])
	}
	if insts[2].Op != isa.OpCvtif || insts[2].Rd != 5 || insts[2].Ra != 1 {
		t.Errorf("cvtif = %+v", insts[2])
	}
	if insts[4].Op != isa.OpFcmpLt || insts[4].Rd != 3 {
		t.Errorf("fcmplt = %+v", insts[4])
	}
}

// TestDisassembleReassemble: disassembly of a representative program
// reassembles to the same instruction sequence (mnemonic syntax is
// self-consistent).
func TestDisassembleReassemble(t *testing.T) {
	src := `
		ldi r1, 64
		ldi r2, 0
	loop:
		ldq r3, 0(r1)
		add r2, r2, r3
		addi r1, r1, 8
		cmplti r4, r1, 512
		bne r4, loop
		stq r2, 0(r1)
		halt
	`
	insts, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(insts)
	// Strip the address column, then reassemble.
	var sb strings.Builder
	for _, line := range strings.Split(dis, "\n") {
		if i := strings.Index(line, ":"); i >= 0 {
			sb.WriteString(line[i+1:])
		}
		sb.WriteString("\n")
	}
	back, err := Assemble(sb.String())
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, dis)
	}
	if len(back) != len(insts) {
		t.Fatalf("length changed: %d -> %d", len(insts), len(back))
	}
	for i := range insts {
		if back[i] != insts[i] {
			t.Errorf("inst %d: %v -> %v", i, insts[i], back[i])
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	src := "ldi r1, 5\naddi r1, r1, 3\nhalt\n"
	insts, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	words, err := EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAll(words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if back[i] != insts[i] {
			t.Errorf("inst %d: %v -> %v", i, insts[i], back[i])
		}
	}
}

func TestAssembleGeneralizedOps(t *testing.T) {
	insts, err := Assemble("popc r4, r22\nwrtdest r3\nmfpr r1, srcval0\nmfpr r2, paldata\n")
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Op != isa.OpPopc || insts[0].Rd != 4 || insts[0].Ra != 22 {
		t.Errorf("popc = %+v", insts[0])
	}
	if insts[1].Op != isa.OpWrtDest || insts[1].Ra != 3 {
		t.Errorf("wrtdest = %+v", insts[1])
	}
	if insts[2].Imm != int64(isa.PrSrcVal0) || insts[3].Imm != int64(isa.PrPalData) {
		t.Errorf("priv regs = %+v %+v", insts[2], insts[3])
	}
	// Disassembly of both handlers reassembles cleanly.
	for _, in := range insts {
		if _, err := Assemble(in.String()); err != nil {
			t.Errorf("%q does not reassemble: %v", in.String(), err)
		}
	}
}
