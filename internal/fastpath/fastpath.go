// Package fastpath is the functional execution tier: the diffsim
// reference semantics (program order, align-down loads/stores, the
// TrapUnaligned byte-span variant, LDL sign extension, the JAL/JALR
// link register, unmapped-page materialization) promoted from a
// per-step switch interpreter to threaded-code dispatch over a
// decoded-instruction cache. Each static instruction is decoded once
// into a record carrying its own exec func pointer; the inner loop is
// `idx = d.fn(e, d, idx)` with no per-instruction allocation, no
// switch, and a direct-mapped translation cache that resolves a
// virtual page straight to its physical frame's backing array.
//
// The tier exists so the harness can fast-forward between regions of
// interest at tens of millions of instructions per second and hand
// architectural state to a cycle-accurate cpu.Machine for sampled
// detailed windows (core.SampleCompare).
//
// Architectural parity with the cycle core is inherited from refemu's
// contract: arithmetic, FP, branch and access-size semantics come
// from isa.EvalIntOp/EvalFPOp/BranchTaken/MemBytes, and the memory
// model matches cpu's commit path (stores align down; unaligned
// integer loads read their true byte span only under the TrapUnaligned
// architecture and only within one page). diffsim cross-checks this
// package against refemu and the cycle core on every fuzzed program.
//
//mtexc:deterministic
package fastpath

import (
	"encoding/binary"
	"fmt"

	"mtexc/internal/isa"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// Options parameterize an engine.
type Options struct {
	// Unaligned architects unaligned integer loads, mirroring
	// cpu.Config.TrapUnaligned (the flag changes the architecture, so
	// it must match the machine the engine's state is compared with or
	// transferred into).
	Unaligned bool
	// RecordTrace retains the committed instruction stream (PC, Op per
	// step) for parity checks. Off by default: tracing a long
	// fast-forward would allocate per instruction.
	RecordTrace bool
}

// Entry is one committed instruction of the architectural trace.
type Entry struct {
	PC uint64
	Op isa.Op
}

// Integer registers live in 33 slots: writes decoded for r31 are
// redirected to the sink slot, so reads never need a zero check and
// slot 31 stays zero forever.
const (
	numSlots = isa.NumIntRegs + 1
	sinkReg  = isa.NumIntRegs
)

// Direct-mapped translation cache geometry. 1024 entries cover 8 MB
// of virtual footprint, far beyond the workloads' hot sets; a miss
// costs one oracle translation. The index folds the VPN's bits above
// the index into it (tcIndex), because the workloads' regions start
// at multiples of 8 MB and would otherwise all share slot 0.
const (
	tcSize = 1024
	tcMask = tcSize - 1
	tcBits = 10
)

// tcEntry caches one page's frame, for loads and stores alike.
type tcEntry struct {
	tag   uint64 // vpn+1; 0 = invalid
	frame *[mem.FrameSize]byte
}

func tcIndex(vpn uint64) uint64 { return (vpn ^ vpn>>tcBits) & tcMask }

// dec is one decoded instruction: a threaded-code record whose fn
// advances the engine and returns the next instruction index.
type dec struct {
	fn   execFn
	imm  int64
	targ int32 // direct branch/jump target index
	rd   uint8 // destination slot (r31 remapped to sink) or store source (raw)
	ra   uint8
	rb   uint8
	op   isa.Op
}

type execFn func(e *Engine, d *dec, idx int32) int32

// Engine executes one program image functionally. It mutates the
// image's address space (stores commit, unmapped touches map fresh
// zero frames); build a dedicated image per engine.
type Engine struct {
	img  *vm.Image
	as   *vm.AddressSpace
	phys *mem.Physical
	opt  Options

	prog     []dec // decoded-instruction cache, 1:1 with img.Code
	rebuilds uint64

	regs [numSlots]uint64
	fp   [isa.NumFPRegs]uint64
	idx  int32
	tc   [tcSize]tcEntry

	steps    uint64
	tcMisses uint64
	halted   bool
	err      error
	trace    []Entry

	codeLo, codeHi uint64 // page-aligned code segment bounds
}

// New decodes img's code segment and returns an engine positioned at
// the entry point with the image's initial register values applied.
// The image must already be loaded (Image.Load).
func New(img *vm.Image, opt Options) (*Engine, error) {
	if img.Space == nil {
		return nil, fmt.Errorf("fastpath: image %q has no address space", img.Name)
	}
	if len(img.Code) == 0 {
		return nil, fmt.Errorf("fastpath: image %q has no code", img.Name)
	}
	off := img.EntryVA - img.CodeVA
	if img.EntryVA < img.CodeVA || off%4 != 0 || off/4 >= uint64(len(img.Code)) {
		return nil, fmt.Errorf("fastpath: image %q entry %#x outside the code segment", img.Name, img.EntryVA)
	}
	e := &Engine{
		img:    img,
		as:     img.Space,
		phys:   img.Space.Phys(),
		opt:    opt,
		prog:   make([]dec, len(img.Code)),
		idx:    int32(off / 4),
		codeLo: img.CodeVA &^ (vm.PageSize - 1),
		codeHi: (img.CodeVA + uint64(len(img.Code))*4 + vm.PageSize - 1) &^ (vm.PageSize - 1),
	}
	e.decodeAll()
	e.rebuilds = 0 // the initial decode is not an invalidation
	//lint:allow detlint writes target distinct registers; order-independent
	for r, v := range img.InitInt {
		if r < isa.RegZero {
			e.regs[r] = v
		}
	}
	//lint:allow detlint writes target distinct registers; order-independent
	for r, v := range img.InitFP {
		if int(r) < isa.NumFPRegs {
			e.fp[r] = v
		}
	}
	return e, nil
}

// decodeAll (re)builds the decoded-instruction cache in place from
// the image's code segment — one decode per static instruction. It
// runs once at construction and again whenever a store hits a code
// page (the invalidation contract); the image's Code slice is the
// fetch authority, exactly as the cycle core's FetchInst path.
func (e *Engine) decodeAll() {
	for i, in := range e.img.Code {
		e.prog[i] = decodeOne(int32(i), in)
	}
	e.rebuilds++
}

// Steps reports committed instructions (including HALT).
func (e *Engine) Steps() uint64 { return e.steps }

// Halted reports whether the program executed HALT.
func (e *Engine) Halted() bool { return e.halted }

// PC reports the virtual address of the next instruction.
func (e *Engine) PC() uint64 { return e.pcOf(e.idx) }

// Trace returns the retained committed-instruction stream (only
// populated under Options.RecordTrace).
func (e *Engine) Trace() []Entry { return e.trace }

// Regs returns the architectural register file.
func (e *Engine) Regs() isa.RegFile {
	var rf isa.RegFile
	copy(rf.Int[:], e.regs[:isa.NumIntRegs])
	rf.FP = e.fp
	return rf
}

func (e *Engine) pcOf(idx int32) uint64 {
	return e.img.CodeVA + uint64(int64(idx))*4
}

// FastForward executes up to n instructions and reports how many
// actually committed. It stops early on HALT or on an execution
// error; both are sticky, and a halted engine returns (0, nil).
//
// This loop is the functional interpreter's hot path (tens of
// millions of instructions per fast-forward segment); hotpathlint
// checks its static call tree.
//
//mtexc:hotpath
func (e *Engine) FastForward(n uint64) (uint64, error) {
	if e.halted || e.err != nil {
		return 0, e.err
	}
	start := e.steps
	idx := e.idx
	prog := e.prog
	rec := e.opt.RecordTrace
	for n > 0 {
		if uint32(idx) >= uint32(len(prog)) {
			//lint:allow hotpathlint abort path: a wild PC terminates the run with a sticky error
			e.err = fmt.Errorf("fastpath: pc %#x outside the code segment after %d steps", e.pcOf(idx), e.steps)
			break
		}
		d := &prog[idx]
		if rec {
			//lint:allow hotpathlint opt-in trace recording (Options.RecordTrace), off on measured runs
			e.trace = append(e.trace, Entry{PC: e.pcOf(idx), Op: d.op})
		}
		e.steps++
		n--
		//lint:allow hotpathlint decoded-instruction dispatch: every d.fn target is an exec* function in this file, all straight-line on predecoded state
		idx = d.fn(e, d, idx)
		if e.halted || e.err != nil {
			break
		}
	}
	e.idx = idx
	return e.steps - start, e.err
}

// frameFor resolves a virtual page to its frame's backing array,
// mapping the page on demand (the architectural effect of the OS
// page-fault service). Returns nil after setting the sticky error
// when the address space bound is exceeded.
func (e *Engine) frameFor(vpn uint64) *[mem.FrameSize]byte {
	te := &e.tc[tcIndex(vpn)]
	if te.tag == vpn+1 {
		return te.frame
	}
	return e.frameSlow(vpn, te)
}

// frameSlow fills te. Nothing clones the engine's memory, so
// Physical.Frame hands out its own frames, which the engine writes in
// place; what borrows them (the window images of core.Walk's
// checkpoints) is done with them before the engine runs on.
func (e *Engine) frameSlow(vpn uint64, te *tcEntry) *[mem.FrameSize]byte {
	e.tcMisses++
	pa, err := e.as.EnsureMapped(vpn << vm.PageShift)
	if err != nil {
		e.err = fmt.Errorf("fastpath: pc %#x: %w", e.pcOf(e.idx), err)
		return nil
	}
	f := e.phys.Frame(pa)
	*te = tcEntry{tag: vpn + 1, frame: f}
	return f
}

// load mirrors refemu.loadValue / the core's architectural load path:
// align the effective address down to the access size, unless
// unaligned integer loads are architected and the span stays within
// one page, in which case the true byte span is read.
func (e *Engine) load(ea, n uint64, op isa.Op) (uint64, bool) {
	a := ea &^ (n - 1)
	if e.opt.Unaligned && op != isa.OpLdf && ea%n != 0 && ea&(vm.PageSize-1) <= vm.PageSize-n {
		a = ea
	}
	f := e.frameFor(a >> vm.PageShift)
	if f == nil {
		return 0, false
	}
	off := a & (vm.PageSize - 1)
	if off%n == 0 {
		if n == 4 {
			return uint64(binary.LittleEndian.Uint32(f[off : off+4])), true
		}
		return binary.LittleEndian.Uint64(f[off : off+8]), true
	}
	var v uint64
	for b := uint64(0); b < n; b++ {
		v |= uint64(f[off+b]) << (b * 8)
	}
	return v, true
}

// store commits aligned down, as the core's commitStore does. A store
// landing in a code page invalidates and rebuilds the decoded-
// instruction cache.
func (e *Engine) store(ea, n, v uint64) {
	a := ea &^ (n - 1)
	f := e.frameFor(a >> vm.PageShift)
	if f == nil {
		return
	}
	off := a & (vm.PageSize - 1)
	if n == 4 {
		binary.LittleEndian.PutUint32(f[off:off+4], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(f[off:off+8], v)
	}
	if a >= e.codeLo && a < e.codeHi {
		e.decodeAll()
	}
}

// decodeOne lowers one instruction into its threaded-code record,
// selecting a specialized exec func for the hot opcodes and a generic
// isa.EvalIntOp/EvalFPOp fallback otherwise. Destination registers
// are remapped r31 -> sink at decode time; source registers stay raw
// (slot 31 is never written, so it reads zero).
func decodeOne(i int32, in isa.Instruction) dec {
	d := dec{op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb, imm: in.Imm}
	dst := in.Rd
	if dst == isa.RegZero {
		dst = sinkReg
	}
	switch isa.ClassOf(in.Op) {
	case isa.ClassNop:
		d.fn = execNop
	case isa.ClassHalt:
		d.fn = execHalt
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		d.rd = dst
		if isa.FormatOf(in.Op) == isa.FmtI {
			switch in.Op {
			case isa.OpAddi:
				d.fn = execAddi
			case isa.OpLdi:
				d.fn = execLdi
			case isa.OpAndi:
				d.fn = execAndi
			case isa.OpSlli:
				d.fn = execSlli
			default:
				d.fn = execIntImm
			}
		} else {
			switch in.Op {
			case isa.OpAdd:
				d.fn = execAdd
			case isa.OpSub:
				d.fn = execSub
			case isa.OpXor:
				d.fn = execXor
			case isa.OpCmpUlt:
				d.fn = execCmpUlt
			default:
				d.fn = execIntRR
			}
		}
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		switch in.Op {
		case isa.OpCvtif:
			d.fn = execCvtif
		case isa.OpCvtfi, isa.OpFcmpEq, isa.OpFcmpLt:
			d.rd = dst
			d.fn = execFPToInt
		default:
			d.fn = execFP
		}
	case isa.ClassLoad:
		switch in.Op {
		case isa.OpLdl:
			d.rd = dst
			d.fn = execLdl
		case isa.OpLdf:
			d.fn = execLdf
		default:
			d.rd = dst
			d.fn = execLdq
		}
	case isa.ClassStore:
		// rd is the store's data source: keep it raw.
		switch in.Op {
		case isa.OpStl:
			d.fn = execStl
		case isa.OpStf:
			d.fn = execStf
		default:
			d.fn = execStq
		}
	case isa.ClassBranch:
		d.targ = i + 1 + int32(in.Imm)
		switch in.Op {
		case isa.OpBeq:
			d.fn = execBeq
		case isa.OpBne:
			d.fn = execBne
		case isa.OpBlt:
			d.fn = execBlt
		default:
			d.fn = execBge
		}
	case isa.ClassJump:
		d.targ = i + 1 + int32(in.Imm)
		switch in.Op {
		case isa.OpBr:
			d.fn = execBr
		case isa.OpJal:
			d.fn = execJal
		case isa.OpJr:
			d.fn = execJr
		case isa.OpJalr:
			d.fn = execJalr
		default:
			d.fn = execRet
		}
	default:
		// PAL-only opcodes (priv, RFE, HARDEXC, WRTDEST) never appear
		// in application code; refemu rejects them identically.
		d.fn = execPALOnly
	}
	return d
}

// idxOf translates an indirect jump target VA to an instruction
// index, setting the sticky error for targets outside the code
// segment (the same condition refemu reports at its next fetch).
func (e *Engine) idxOf(va uint64) int32 {
	off := va - e.img.CodeVA
	if va < e.img.CodeVA || off%4 != 0 || off/4 >= uint64(len(e.prog)) {
		e.err = fmt.Errorf("fastpath: pc %#x outside the code segment after %d steps", va, e.steps)
		return 0
	}
	return int32(off / 4)
}

func execNop(e *Engine, d *dec, idx int32) int32 { return idx + 1 }

func execHalt(e *Engine, d *dec, idx int32) int32 {
	e.halted = true
	return idx
}

func execPALOnly(e *Engine, d *dec, idx int32) int32 {
	e.err = fmt.Errorf("fastpath: pc %#x: PAL-only opcode %v in application code", e.pcOf(idx), d.op)
	return idx
}

// Specialized integer ALU paths (the hot mix of every workload).

func execAdd(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] + e.regs[d.rb]
	return idx + 1
}

func execSub(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] - e.regs[d.rb]
	return idx + 1
}

func execXor(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] ^ e.regs[d.rb]
	return idx + 1
}

func execCmpUlt(e *Engine, d *dec, idx int32) int32 {
	var v uint64
	if e.regs[d.ra] < e.regs[d.rb] {
		v = 1
	}
	e.regs[d.rd] = v
	return idx + 1
}

func execAddi(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] + uint64(d.imm)
	return idx + 1
}

func execAndi(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] & uint64(d.imm)
	return idx + 1
}

func execSlli(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = e.regs[d.ra] << (uint64(d.imm) & 63)
	return idx + 1
}

func execLdi(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = uint64(d.imm)
	return idx + 1
}

// Generic integer fallbacks share isa.EvalIntOp with the cycle core.

func execIntRR(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = isa.EvalIntOp(d.op, e.regs[d.ra], e.regs[d.rb])
	return idx + 1
}

func execIntImm(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = isa.EvalIntOp(d.op, e.regs[d.ra], uint64(d.imm))
	return idx + 1
}

// FP paths share isa.EvalFPOp; destination routing (int vs FP
// register file) is resolved at decode time.

func execCvtif(e *Engine, d *dec, idx int32) int32 {
	e.fp[d.rd] = isa.EvalFPOp(d.op, e.regs[d.ra], 0)
	return idx + 1
}

func execFPToInt(e *Engine, d *dec, idx int32) int32 {
	e.regs[d.rd] = isa.EvalFPOp(d.op, e.fp[d.ra], e.fp[d.rb])
	return idx + 1
}

func execFP(e *Engine, d *dec, idx int32) int32 {
	e.fp[d.rd] = isa.EvalFPOp(d.op, e.fp[d.ra], e.fp[d.rb])
	return idx + 1
}

// Memory.

func execLdq(e *Engine, d *dec, idx int32) int32 {
	v, ok := e.load(e.regs[d.ra]+uint64(d.imm), 8, d.op)
	if !ok {
		return idx
	}
	e.regs[d.rd] = v
	return idx + 1
}

func execLdl(e *Engine, d *dec, idx int32) int32 {
	v, ok := e.load(e.regs[d.ra]+uint64(d.imm), 4, d.op)
	if !ok {
		return idx
	}
	e.regs[d.rd] = uint64(int64(int32(v)))
	return idx + 1
}

func execLdf(e *Engine, d *dec, idx int32) int32 {
	v, ok := e.load(e.regs[d.ra]+uint64(d.imm), 8, d.op)
	if !ok {
		return idx
	}
	e.fp[d.rd] = v
	return idx + 1
}

func execStq(e *Engine, d *dec, idx int32) int32 {
	e.store(e.regs[d.ra]+uint64(d.imm), 8, e.regs[d.rd])
	return idx + 1
}

func execStl(e *Engine, d *dec, idx int32) int32 {
	e.store(e.regs[d.ra]+uint64(d.imm), 4, e.regs[d.rd])
	return idx + 1
}

func execStf(e *Engine, d *dec, idx int32) int32 {
	e.store(e.regs[d.ra]+uint64(d.imm), 8, e.fp[d.rd])
	return idx + 1
}

// Control.

func execBeq(e *Engine, d *dec, idx int32) int32 {
	if e.regs[d.ra] == 0 {
		return d.targ
	}
	return idx + 1
}

func execBne(e *Engine, d *dec, idx int32) int32 {
	if e.regs[d.ra] != 0 {
		return d.targ
	}
	return idx + 1
}

func execBlt(e *Engine, d *dec, idx int32) int32 {
	if int64(e.regs[d.ra]) < 0 {
		return d.targ
	}
	return idx + 1
}

func execBge(e *Engine, d *dec, idx int32) int32 {
	if int64(e.regs[d.ra]) >= 0 {
		return d.targ
	}
	return idx + 1
}

func execBr(e *Engine, d *dec, idx int32) int32 { return d.targ }

func execJal(e *Engine, d *dec, idx int32) int32 {
	e.regs[isa.RegLR] = e.pcOf(idx) + 4
	return d.targ
}

func execJr(e *Engine, d *dec, idx int32) int32 {
	return e.idxOf(e.regs[d.ra])
}

func execJalr(e *Engine, d *dec, idx int32) int32 {
	target := e.regs[d.ra]
	e.regs[isa.RegLR] = e.pcOf(idx) + 4
	return e.idxOf(target)
}

func execRet(e *Engine, d *dec, idx int32) int32 {
	return e.idxOf(e.regs[isa.RegLR])
}
