package asm

import (
	"fmt"
	"strconv"
	"strings"

	"mtexc/internal/isa"
)

// Assemble parses assembler source text into an instruction sequence.
//
// Syntax, one statement per line:
//
//	label:                  ; binds label to the next instruction
//	add r1, r2, r3          ; R-format
//	addi r1, r2, -4         ; I-format
//	ldq r1, 16(r2)          ; memory
//	beq r1, loop            ; branch to label (or numeric word disp)
//	br done                 ; jump to label
//	mfpr r1, faultva        ; privileged register by name
//	limm r1, 0x123456789    ; pseudo: expands to ldi/ldih sequence
//	mov r1, r2              ; pseudo: add r1, r2, r31
//
// Comments start with ';', '#' or '//' and run to end of line.
func Assemble(src string) ([]isa.Instruction, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading labels, possibly several on one line.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if name == "" || strings.ContainsAny(name, " \t,()") {
				return nil, fmt.Errorf("asm: line %d: malformed label %q", lineNo+1, name)
			}
			b.Label(name)
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleStmt(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", lineNo+1, err)
		}
	}
	return b.Finish()
}

func stripComment(line string) string {
	for _, marker := range []string{";", "#", "//"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

var mnemonics = buildMnemonicTable()

func buildMnemonicTable() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}

var privRegs = buildPrivRegTable()

func buildPrivRegTable() map[string]isa.PrivReg {
	m := make(map[string]isa.PrivReg, int(isa.NumPrivRegs))
	for p := isa.PrivReg(0); p < isa.NumPrivRegs; p++ {
		m[p.String()] = p
	}
	return m
}

func assembleStmt(b *Builder, line string) error {
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(fields[0])
	var ops []string
	if len(fields) == 2 {
		for _, o := range strings.Split(fields[1], ",") {
			ops = append(ops, strings.TrimSpace(o))
		}
	}
	switch mnem {
	case "limm":
		if len(ops) != 2 {
			return fmt.Errorf("limm needs 2 operands")
		}
		rd, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		v, err := parseUint64(ops[1])
		if err != nil {
			return err
		}
		b.LoadImm(rd, v)
		return nil
	case "mov":
		if len(ops) != 2 {
			return fmt.Errorf("mov needs 2 operands")
		}
		rd, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		ra, err := parseIntReg(ops[1])
		if err != nil {
			return err
		}
		b.Move(rd, ra)
		return nil
	}

	op, ok := mnemonics[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	fp := op.IsFPOp()
	switch isa.FormatOf(op) {
	case isa.FmtN:
		if len(ops) != 0 {
			return fmt.Errorf("%s takes no operands", op)
		}
		b.Emit(isa.Instruction{Op: op})
		return nil
	case isa.FmtJ:
		if len(ops) != 1 {
			return fmt.Errorf("%s needs 1 operand", op)
		}
		if d, err := strconv.ParseInt(ops[0], 0, 64); err == nil {
			if err := inRange(d, isa.MinDispJ, isa.MaxDispJ); err != nil {
				return err
			}
			b.Emit(isa.Instruction{Op: op, Imm: d})
		} else {
			b.Jump(op, ops[0])
		}
		return nil
	case isa.FmtB:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		ra, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		if d, err := strconv.ParseInt(ops[1], 0, 64); err == nil {
			if err := inRange(d, isa.MinDispB, isa.MaxDispB); err != nil {
				return err
			}
			b.Emit(isa.Instruction{Op: op, Ra: ra, Imm: d})
		} else {
			b.Branch(op, ra, ops[1])
		}
		return nil
	case isa.FmtR:
		return assembleR(b, op, fp, ops)
	case isa.FmtI:
		return assembleI(b, op, ops)
	}
	return fmt.Errorf("unhandled format for %s", op)
}

func assembleR(b *Builder, op isa.Op, fp bool, ops []string) error {
	parse := parseIntReg
	if fp {
		parse = parseFPReg
	}
	switch op {
	case isa.OpJr, isa.OpJalr, isa.OpWrtDest:
		if len(ops) != 1 {
			return fmt.Errorf("%s needs 1 operand", op)
		}
		ra, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		b.R(op, 0, ra, 0)
		return nil
	case isa.OpPopc:
		rd, ra, err := parse2(ops, parseIntReg, parseIntReg)
		if err != nil {
			return err
		}
		b.R(op, rd, ra, 0)
		return nil
	case isa.OpTlbwr:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		ra, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		rb, err := parseIntReg(ops[1])
		if err != nil {
			return err
		}
		b.R(op, 0, ra, rb)
		return nil
	case isa.OpFsqrt, isa.OpFmov:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		rd, err := parseFPReg(ops[0])
		if err != nil {
			return err
		}
		ra, err := parseFPReg(ops[1])
		if err != nil {
			return err
		}
		b.R(op, rd, ra, 0)
		return nil
	case isa.OpCvtif:
		rd, ra, err := parse2(ops, parseFPReg, parseIntReg)
		if err != nil {
			return err
		}
		b.R(op, rd, ra, 0)
		return nil
	case isa.OpCvtfi:
		rd, ra, err := parse2(ops, parseIntReg, parseFPReg)
		if err != nil {
			return err
		}
		b.R(op, rd, ra, 0)
		return nil
	case isa.OpFcmpEq, isa.OpFcmpLt:
		if len(ops) != 3 {
			return fmt.Errorf("%s needs 3 operands", op)
		}
		rd, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		ra, err := parseFPReg(ops[1])
		if err != nil {
			return err
		}
		rb, err := parseFPReg(ops[2])
		if err != nil {
			return err
		}
		b.R(op, rd, ra, rb)
		return nil
	}
	if len(ops) != 3 {
		return fmt.Errorf("%s needs 3 operands", op)
	}
	rd, err := parse(ops[0])
	if err != nil {
		return err
	}
	ra, err := parse(ops[1])
	if err != nil {
		return err
	}
	rb, err := parse(ops[2])
	if err != nil {
		return err
	}
	b.R(op, rd, ra, rb)
	return nil
}

func assembleI(b *Builder, op isa.Op, ops []string) error {
	switch op {
	case isa.OpLdq, isa.OpLdl, isa.OpStq, isa.OpStl, isa.OpLdf, isa.OpStf:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		dataParse := parseIntReg
		if op == isa.OpLdf || op == isa.OpStf {
			dataParse = parseFPReg
		}
		rd, err := dataParse(ops[0])
		if err != nil {
			return err
		}
		imm, ra, err := parseMemOperand(ops[1])
		if err != nil {
			return err
		}
		b.I(op, rd, ra, imm)
		return nil
	case isa.OpLdi:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		rd, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return err
		}
		b.I(op, rd, 0, imm)
		return nil
	case isa.OpMfpr:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		rd, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		pr, ok := privRegs[strings.ToLower(ops[1])]
		if !ok {
			return fmt.Errorf("unknown privileged register %q", ops[1])
		}
		b.I(op, rd, 0, int64(pr))
		return nil
	case isa.OpMtpr:
		if len(ops) != 2 {
			return fmt.Errorf("%s needs 2 operands", op)
		}
		ra, err := parseIntReg(ops[0])
		if err != nil {
			return err
		}
		pr, ok := privRegs[strings.ToLower(ops[1])]
		if !ok {
			return fmt.Errorf("unknown privileged register %q", ops[1])
		}
		b.I(op, 0, ra, int64(pr))
		return nil
	}
	if len(ops) != 3 {
		return fmt.Errorf("%s needs 3 operands", op)
	}
	rd, err := parseIntReg(ops[0])
	if err != nil {
		return err
	}
	ra, err := parseIntReg(ops[1])
	if err != nil {
		return err
	}
	imm, err := parseImm(ops[2])
	if err != nil {
		return err
	}
	b.I(op, rd, ra, imm)
	return nil
}

func parse2(ops []string, p0, p1 func(string) (uint8, error)) (uint8, uint8, error) {
	if len(ops) != 2 {
		return 0, 0, fmt.Errorf("need 2 operands")
	}
	rd, err := p0(ops[0])
	if err != nil {
		return 0, 0, err
	}
	ra, err := p1(ops[1])
	if err != nil {
		return 0, 0, err
	}
	return rd, ra, nil
}

func parseIntReg(s string) (uint8, error) { return parseReg(s, 'r') }
func parseFPReg(s string) (uint8, error)  { return parseReg(s, 'f') }

func parseReg(s string, prefix byte) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case s == "sp" && prefix == 'r':
		return isa.RegSP, nil
	case s == "lr" && prefix == 'r':
		return isa.RegLR, nil
	case s == "zero" && prefix == 'r':
		return isa.RegZero, nil
	}
	if len(s) < 2 || s[0] != prefix {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

// parseMemOperand parses "disp(reg)" or "(reg)".
func parseMemOperand(s string) (int64, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var disp int64
	var err error
	if open > 0 {
		disp, err = strconv.ParseInt(strings.TrimSpace(s[:open]), 0, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement in %q", s)
		}
		if err := inRange(disp, isa.MinImm, isa.MaxImm); err != nil {
			return 0, 0, err
		}
	}
	ra, err := parseIntReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return disp, ra, nil
}

// parseImm parses an I-format immediate, which must fit the
// encoding's signed 14-bit field (limm materializes wider constants).
func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, err
	}
	return v, inRange(v, isa.MinImm, isa.MaxImm)
}

// inRange rejects a numeric operand its encoding field cannot hold,
// so that everything Assemble accepts also encodes.
func inRange(v, lo, hi int64) error {
	if v < lo || v > hi {
		return fmt.Errorf("operand %d out of range [%d, %d]", v, lo, hi)
	}
	return nil
}

func parseUint64(s string) (uint64, error) {
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return v, nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad constant %q", s)
	}
	return uint64(v), nil
}

// Disassemble renders an instruction sequence as assembler text, one
// instruction per line with word addresses.
func Disassemble(insts []isa.Instruction) string {
	var sb strings.Builder
	for i, in := range insts {
		fmt.Fprintf(&sb, "%6d:  %s\n", i, in)
	}
	return sb.String()
}
