package isa

import (
	"strings"
	"testing"
)

// TestStringCoversAllOpcodes: every defined opcode renders distinct,
// reparseable-looking assembler text.
func TestStringCoversAllOpcodes(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); int(op) < NumOps; op++ {
		in := Instruction{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: 4}
		switch FormatOf(op) {
		case FmtI:
			if op == OpMfpr || op == OpMtpr {
				in.Imm = int64(PrFaultVA)
			}
		case FmtN:
			in = Instruction{Op: op}
		}
		s := in.String()
		if s == "" {
			t.Errorf("%v renders empty", op)
		}
		if !strings.HasPrefix(s, op.String()) {
			t.Errorf("%v renders as %q, not prefixed by its mnemonic", op, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("%v and %v render identically: %q", op, prev, s)
		}
		seen[s] = op
	}
}

// TestEncodeDecodeEveryOpcode: the architectural encoding round-trips
// for every defined opcode with representative operands.
func TestEncodeDecodeEveryOpcode(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		in := Instruction{Op: op}
		switch FormatOf(op) {
		case FmtR:
			in.Rd, in.Ra, in.Rb = 1, 2, 3
		case FmtI:
			in.Rd, in.Ra, in.Imm = 1, 2, -5
		case FmtB:
			in.Ra, in.Imm = 4, -6
		case FmtJ:
			in.Imm = 7
		}
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got, err := Decode(w)
		if err != nil || got != in {
			t.Errorf("%v: round trip %v -> %v (%v)", op, in, got, err)
		}
	}
}

// TestSourceDestConsistency: an opcode's integer source list holds
// neither the zero register nor an out-of-range register.
func TestSourceDestConsistency(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		in := Instruction{Op: op, Rd: 5, Ra: 6, Rb: 7, Imm: 1}
		if op == OpMfpr || op == OpMtpr {
			in.Imm = int64(PrScratch0)
		}
		srcs, n := in.IntSrcRegs()
		for _, r := range srcs[:n] {
			if r == RegZero {
				t.Errorf("%v reports r31 as a source", op)
			}
			if r >= NumIntRegs {
				t.Errorf("%v reports out-of-range source %d", op, r)
			}
		}
	}
}

func TestPopcSemantics(t *testing.T) {
	cases := []struct {
		in, want uint64
	}{
		{0, 0}, {1, 1}, {0xff, 8}, {^uint64(0), 64},
		{0x8000000000000001, 2}, {0x5555555555555555, 32},
	}
	for _, c := range cases {
		if got := EvalIntOp(OpPopc, c.in, 0); got != c.want {
			t.Errorf("popc(%#x) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrivRegNames(t *testing.T) {
	seen := map[string]bool{}
	for p := PrivReg(0); p < NumPrivRegs; p++ {
		n := p.String()
		if n == "" || strings.HasPrefix(n, "pr(") {
			t.Errorf("privileged register %d unnamed", p)
		}
		if seen[n] {
			t.Errorf("duplicate privileged register name %q", n)
		}
		seen[n] = true
	}
}

func TestIsHelpers(t *testing.T) {
	if !OpBeq.IsControl() || !OpRet.IsControl() || !OpRfe.IsControl() || OpAdd.IsControl() {
		t.Error("IsControl wrong")
	}
	if !OpFadd.IsFPOp() || OpLdf.IsFPOp() || OpAdd.IsFPOp() {
		t.Error("IsFPOp wrong")
	}
	if !Op(0).Valid() || Op(255).Valid() {
		t.Error("Valid wrong")
	}
}
