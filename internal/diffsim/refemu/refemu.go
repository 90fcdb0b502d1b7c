// Package refemu is the independent oracle of the differential-
// fuzzing subsystem: a plain, ISA-level architectural interpreter. It
// executes a program image one instruction at a time, in order, with
// no pipeline, no TLB, no speculation and no exception machinery —
// memory is translated through the address-space oracle and unmapped
// pages simply materialize as fresh zero frames, which is exactly the
// architectural effect of the simulated OS page-fault service. Every
// cpu.Machine configuration must therefore finish with the same
// registers, the same mapped-memory contents and the same committed
// instruction stream as this emulator: the mechanisms may differ only
// in timing, never in result (the paper's architectural-invisibility
// contract).
//
// Functional parity with the core is by construction, not by
// reimplementation: arithmetic, FP, branch and access-size semantics
// come from the same isa.EvalIntOp/EvalFPOp/BranchTaken/MemBytes the
// core's fetch-time execution uses. What this package independently
// encodes is the architectural contract itself — program order,
// alignment, sign extension, the link register, memory commitment —
// so a bug in the core's exception plumbing cannot hide in a shared
// implementation.
//
//mtexc:deterministic
package refemu

import (
	"fmt"

	"mtexc/internal/isa"
	"mtexc/internal/vm"
)

// Options parameterize a reference run.
type Options struct {
	// MaxSteps aborts a program that fails to halt (default 2M).
	MaxSteps uint64
	// Unaligned architects unaligned integer loads, mirroring
	// Config.TrapUnaligned: a non-page-crossing off-word load reads
	// its true byte span instead of aligning down. It must match the
	// compared machine's TrapUnaligned setting — the flag changes the
	// architecture, uniformly across all mechanisms.
	Unaligned bool
}

// Entry is one committed instruction of the architectural trace.
type Entry struct {
	PC uint64
	Op isa.Op
}

// Result is the final architectural state of a reference run.
type Result struct {
	// Regs is the final register file.
	Regs isa.RegFile
	// Steps counts committed instructions (including HALT).
	Steps uint64
	// Trace is the committed instruction stream, in program order.
	Trace []Entry
}

const defaultMaxSteps = 2_000_000

// Run interprets img from its entry point until HALT. The image's
// address space is mutated (stores commit, unmapped touches map fresh
// zero pages); build a dedicated image per run.
func Run(img *vm.Image, opt Options) (*Result, error) {
	max := opt.MaxSteps
	if max == 0 {
		max = defaultMaxSteps
	}
	as := img.Space
	phys := as.Phys()
	var rf isa.RegFile
	res := &Result{}
	pc := img.EntryVA

	writeInt := func(rd uint8, v uint64) { rf.WriteInt(rd, v) }

	for res.Steps < max {
		in, ok := img.FetchInst(pc)
		if !ok {
			return nil, fmt.Errorf("refemu: pc %#x outside the code segment after %d steps", pc, res.Steps)
		}
		res.Steps++
		res.Trace = append(res.Trace, Entry{PC: pc, Op: in.Op})
		next := pc + 4

		switch isa.ClassOf(in.Op) {
		case isa.ClassNop:
			// no effect

		case isa.ClassHalt:
			res.Regs = rf
			return res, nil

		case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
			a := rf.ReadInt(in.Ra)
			var b uint64
			if isa.FormatOf(in.Op) == isa.FmtI {
				b = uint64(in.Imm)
			} else {
				b = rf.ReadInt(in.Rb)
			}
			writeInt(in.Rd, isa.EvalIntOp(in.Op, a, b))

		case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
			var a, b uint64
			if in.Op == isa.OpCvtif {
				a = rf.ReadInt(in.Ra)
			} else {
				a = rf.ReadFP(in.Ra)
				b = rf.ReadFP(in.Rb)
			}
			v := isa.EvalFPOp(in.Op, a, b)
			switch in.Op {
			case isa.OpCvtfi, isa.OpFcmpEq, isa.OpFcmpLt:
				writeInt(in.Rd, v)
			default:
				rf.WriteFP(in.Rd, v)
			}

		case isa.ClassLoad:
			ea := rf.ReadInt(in.Ra) + uint64(in.Imm)
			v, err := loadValue(as, phys, in.Op, ea, opt.Unaligned)
			if err != nil {
				return nil, fmt.Errorf("refemu: pc %#x: %w", pc, err)
			}
			switch in.Op {
			case isa.OpLdl:
				writeInt(in.Rd, uint64(int64(int32(v))))
			case isa.OpLdf:
				rf.WriteFP(in.Rd, v)
			default:
				writeInt(in.Rd, v)
			}

		case isa.ClassStore:
			ea := rf.ReadInt(in.Ra) + uint64(in.Imm)
			n := isa.MemBytes(in.Op)
			var v uint64
			if in.Op == isa.OpStf {
				v = rf.ReadFP(in.Rd)
			} else {
				v = rf.ReadInt(in.Rd)
			}
			// Stores always commit aligned down, as the core's
			// commitStore does.
			pa, err := as.EnsureMapped(ea &^ (n - 1))
			if err != nil {
				return nil, fmt.Errorf("refemu: pc %#x: store: %w", pc, err)
			}
			if n == 4 {
				phys.WriteU32(pa, uint32(v))
			} else {
				phys.WriteU64(pa, v)
			}

		case isa.ClassBranch:
			if isa.BranchTaken(in.Op, rf.ReadInt(in.Ra)) {
				next = pc + 4 + uint64(in.Imm)*4
			}

		case isa.ClassJump:
			switch in.Op {
			case isa.OpBr:
				next = pc + 4 + uint64(in.Imm)*4
			case isa.OpJal:
				writeInt(isa.RegLR, pc+4)
				next = pc + 4 + uint64(in.Imm)*4
			case isa.OpJr:
				next = rf.ReadInt(in.Ra)
			case isa.OpJalr:
				target := rf.ReadInt(in.Ra)
				writeInt(isa.RegLR, pc+4)
				next = target
			case isa.OpRet:
				next = rf.ReadInt(isa.RegLR)
			}

		default:
			// PAL-only opcodes (priv, RFE, HARDEXC) never appear in
			// application code; a generated program containing one is
			// invalid, not divergent.
			return nil, fmt.Errorf("refemu: pc %#x: PAL-only opcode %v in application code", pc, in.Op)
		}

		pc = next
	}
	return nil, fmt.Errorf("refemu: no HALT within %d steps", max)
}

// loadValue mirrors the core's architectural load semantics
// (cpu.loadValue on the correct path): align the effective address
// down to the access size, unless unaligned integer loads are
// architected and the span stays within one page, in which case the
// true byte span is read. Unmapped pages materialize as fresh zero
// frames, the architectural effect of the OS page-fault service.
func loadValue(as *vm.AddressSpace, phys physReader, op isa.Op, ea uint64, unaligned bool) (uint64, error) {
	n := isa.MemBytes(op)
	a := ea &^ (n - 1)
	if unaligned && op != isa.OpLdf && ea%n != 0 && ea&(vm.PageSize-1) <= vm.PageSize-n {
		a = ea
	}
	pa, err := as.EnsureMapped(a)
	if err != nil {
		return 0, err
	}
	if pa%n == 0 {
		if n == 4 {
			return uint64(phys.ReadU32(pa)), nil
		}
		return phys.ReadU64(pa), nil
	}
	var v uint64
	for b := uint64(0); b < n; b++ {
		v |= uint64(phys.ReadU8(pa+b)) << (b * 8)
	}
	return v, nil
}

// physReader is the slice of mem.Physical the emulator reads through.
type physReader interface {
	ReadU8(pa uint64) uint8
	ReadU32(pa uint64) uint32
	ReadU64(pa uint64) uint64
}
