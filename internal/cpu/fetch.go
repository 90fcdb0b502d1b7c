package cpu

import (
	"mtexc/internal/isa"
	"mtexc/internal/vm"
)

// fetch models the shared fetch unit: one thread per cycle (ICOUNT.1
// style), with exception-handler threads given absolute fetch
// priority (Section 4.4) — a freshly spawned handler has zero
// in-flight instructions, so ICOUNT would pick it anyway; the
// explicit priority also covers the NoHandlerFetchPriority ablation.
func (m *Machine) fetch() {
	if m.cfg.Mech == MechMultithreaded && !m.cfg.NoHandlerFetchPriority {
		for i := range m.threads {
			t := &m.threads[i]
			if t.state == ctxException && m.canFetch(t) {
				m.fetchThread(t)
				if m.cfg.Limit != LimitNoFetchBW {
					return
				}
				break // at most one exempt handler fetch per cycle
			}
		}
	}
	var best *thread
	if m.cfg.FetchRoundRobin {
		n := len(m.threads)
		for i := 0; i < n; i++ {
			t := &m.threads[(m.rrCursor+i)%n]
			if !m.canFetch(t) || t.state == ctxException {
				continue
			}
			best = t
			m.rrCursor = (t.id + 1) % n
			break
		}
	} else {
		for i := range m.threads {
			t := &m.threads[i]
			if !m.canFetch(t) {
				continue
			}
			if t.state == ctxException && !(m.cfg.Mech == MechMultithreaded && m.cfg.NoHandlerFetchPriority) {
				continue // already had its chance above
			}
			if best == nil || t.icount < best.icount {
				best = t
			}
		}
	}
	if best != nil {
		m.fetchThread(best)
	}
}

func (m *Machine) canFetch(t *thread) bool {
	if !t.runnable() || t.haltedFetch || t.fetchStalled {
		return false
	}
	if m.now < t.fetchBlockedUntil {
		return false
	}
	if len(t.fetchBuf) >= m.cfg.FetchBufferCap {
		return false
	}
	if t.state == ctxException {
		if exc := m.hctx(t.exc); exc != nil && exc.fetchBudget <= 0 {
			return false
		}
	}
	return true
}

// fetchInst returns the static instruction at va for thread t along
// with its physical address for instruction-cache timing.
func (m *Machine) fetchInst(t *thread, va uint64) (isa.Instruction, uint64, bool) {
	if t.inPAL || vm.IsPALVA(va) {
		in, ok := m.pal.FetchInst(va)
		if !ok {
			return isa.Instruction{}, 0, false
		}
		return in, m.pal.InstPA(va), true
	}
	if t.img == nil {
		return isa.Instruction{}, 0, false
	}
	in, ok := t.img.FetchInst(va)
	if !ok {
		return isa.Instruction{}, 0, false
	}
	return in, t.img.InstPA(va), true
}

// fetchThread fetches up to Width instructions from t along its
// predicted path. The abstract front end can cross basic-block
// boundaries and take any number of branches per cycle (Section 5.1);
// an I-cache miss delays the affected instructions' availability.
func (m *Machine) fetchThread(t *thread) {
	lineMask := m.cfg.Hier.L1I.LineSize - 1
	curBlock := ^uint64(0)
	blockReady := m.now
	fetched := 0
	for fetched < m.cfg.Width {
		if t.haltedFetch || t.fetchStalled || len(t.fetchBuf) >= m.cfg.FetchBufferCap {
			break
		}
		if t.state == ctxException && m.hctx(t.exc).fetchBudget <= 0 {
			break
		}
		in, pa, ok := m.fetchInst(t, t.pc)
		if !ok {
			// Ran off the code segment (a wrong path, or a garbage
			// indirect target): fetch idles until a squash redirects.
			t.haltedFetch = true
			m.hot.fetchOffEnd.Inc()
			break
		}
		if block := pa &^ lineMask; block != curBlock {
			curBlock = block
			blockReady = m.hier.AccessInst(m.now, pa)
		}
		u := m.buildUop(t, in)
		u.fetchAt = m.now
		u.availAt = blockReady + uint64(m.cfg.FetchStages)
		m.execFunctional(t, u)
		//lint:allow hotpathlint per-thread queue appends into capacity retained across cycles; amortized zero alloc
		t.fetchBuf = append(t.fetchBuf, u.idx)
		//lint:allow hotpathlint same: in-flight list capacity is retained across cycles
		t.inflight = append(t.inflight, u.idx)
		t.icount++
		if t.state == ctxException {
			m.hctx(t.exc).fetchBudget--
		}
		t.pc = u.predPC
		fetched++
		m.hot.fetchInsts.Inc()
		m.postFetchControl(t, u)
	}
	if fetched > 0 {
		m.hot.fetchCycles.Inc()
	}
}

// postFetchControl applies fetch-side effects of control and mode
// instructions.
func (m *Machine) postFetchControl(t *thread, u *uop) {
	switch u.inst.Op {
	case isa.OpRfe:
		if t.state != ctxException {
			// Traditional handler return: the front end has no
			// RAS-like mechanism for exception return targets
			// (Section 3), so fetch stalls until the RFE executes.
			t.fetchStalled = true
		} else {
			// Handler threads stop fetching at the handler's end
			// (Section 4.4).
			t.haltedFetch = true
		}
	case isa.OpHalt, isa.OpHardExc:
		t.haltedFetch = true
	default:
		if u.mispred && u.predPC == 0 {
			// Unpredicted indirect target: nothing to fetch until
			// the jump resolves.
			t.haltedFetch = true
		}
	}
}

func (m *Machine) buildUop(t *thread, in isa.Instruction) *uop {
	u := m.newUop()
	u.seq = m.nextSeq()
	u.tid = t.id
	u.pc = t.pc
	u.inst = in
	u.pal = t.inPAL
	u.excFetch = t.state == ctxException
	u.palCtx = m.palCtxFor(t)
	u.schedSeq = u.seq
	if u.excFetch {
		if exc := m.hctx(t.exc); exc != nil && exc.masterSeq != 0 {
			u.schedSeq = exc.masterSeq
		}
	}
	return u
}

// palCtxFor links PAL-mode instructions to the handler instance they
// implement.
func (m *Machine) palCtxFor(t *thread) hRef {
	if !t.inPAL {
		return hRef{}
	}
	if t.state == ctxException {
		return t.exc
	}
	return t.trapCtx
}

// curRF selects the register file fetched instructions read and
// write: handler threads use their own (fresh) context registers; a
// traditional in-thread handler uses the PAL shadow registers, so the
// application's registers are never disturbed.
func (t *thread) curRF() *isa.RegFile {
	if t.inPAL && t.state != ctxException {
		return &t.shadowRF
	}
	return &t.rf
}

const pathMask = 1<<16 - 1

func pathUpdate(path, target uint64) uint64 {
	return (path<<3 ^ target>>2) & pathMask
}

// execFunctional executes u at fetch time against t's speculative
// register state, records the journal entry for squash undo, builds
// the dataflow edges, and performs branch prediction. Along wrong
// paths the computed values are garbage by design; they are undone on
// squash.
func (m *Machine) execFunctional(t *thread, u *uop) {
	rf := t.curRF()
	in := u.inst

	// Dataflow edges from the fetch-order last-writer tables. Stale
	// table entries are skipped: their writer has retired, so the
	// dependency is already satisfied.
	ns := 0
	addSrc := func(w depRef) {
		if p := m.uopAt(w); p != nil && ns < len(u.srcs) {
			u.srcs[ns] = w
			m.linkSrc(u, p, ns)
			ns++
		}
	}
	lwInt, lwFP := t.writerTables()
	if srcs, n := in.IntSrcRegs(); n > 0 {
		for _, r := range srcs[:n] {
			addSrc(lwInt[r])
		}
	}
	if srcs, n := in.FPSrcRegs(); n > 0 {
		for _, r := range srcs[:n] {
			addSrc(lwFP[r])
		}
	}

	// Prediction repair state (before this uop's own actions).
	u.histBefore, u.pathBefore = t.ghr, t.path
	u.rasCp = m.ras[t.id].Checkpoint()

	// The journal records the written slot as a (kind, register)
	// location resolved against the fetching register file: the shadow
	// file when a traditional in-thread handler is fetching (curRF),
	// the thread's own file otherwise.
	intKind, fpKind := slotInt, slotFP
	if t.inPAL && t.state != ctxException {
		intKind, fpKind = slotShadowInt, slotShadowFP
	}
	writeInt := func(rd uint8, v uint64) {
		u.result = v
		u.destKind = regInt
		u.destReg = rd
		if rd != isa.RegZero {
			u.slotKind = intKind
			u.slotReg = rd
			u.oldVal = rf.Int[rd]
			rf.Int[rd] = v
			lwInt[rd] = ref(u)
		}
	}
	writeFP := func(rd uint8, v uint64) {
		u.result = v
		u.destKind = regFP
		u.destReg = rd
		u.slotKind = fpKind
		u.slotReg = rd
		u.oldVal = rf.FP[rd]
		rf.FP[rd] = v
		lwFP[rd] = ref(u)
	}

	nextPC := u.pc + 4
	u.predPC = nextPC

	switch isa.ClassOf(in.Op) {
	case isa.ClassNop, isa.ClassHardExc, isa.ClassHalt:
		// no architectural effect at fetch

	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		a := rf.ReadInt(in.Ra)
		var b uint64
		if isa.FormatOf(in.Op) == isa.FmtI {
			b = uint64(in.Imm)
		} else {
			b = rf.ReadInt(in.Rb)
		}
		if in.Op == isa.OpPopc {
			// Recorded for the emulation handler: the hardware keeps
			// the excepting instruction's source physical register
			// IDs, giving the handler read access (Section 6).
			u.srcVal = a
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
		res := isa.EvalFPOp(in.Op, a, b)
		switch in.Op {
		case isa.OpCvtfi, isa.OpFcmpEq, isa.OpFcmpLt:
			writeInt(in.Rd, res)
		default:
			writeFP(in.Rd, res)
		}

	case isa.ClassLoad:
		u.ea = rf.ReadInt(in.Ra) + uint64(in.Imm)
		u.memBytes = isa.MemBytes(in.Op)
		v := m.loadValue(t, u)
		switch in.Op {
		case isa.OpLdl:
			writeInt(in.Rd, uint64(int64(int32(v))))
		case isa.OpLdf:
			writeFP(in.Rd, v)
		default:
			writeInt(in.Rd, v)
		}
		m.addMemDep(t, u, addSrc)

	case isa.ClassStore:
		u.ea = rf.ReadInt(in.Ra) + uint64(in.Imm)
		u.memBytes = isa.MemBytes(in.Op)
		if in.Op == isa.OpStf {
			u.storeVal = rf.ReadFP(in.Rd)
		} else {
			u.storeVal = rf.ReadInt(in.Rd)
		}
		if in.Op == isa.OpStl {
			u.storeVal &= 0xffffffff
		}
		//lint:allow hotpathlint speculative-store-buffer append into capacity retained across cycles
		t.ssb = append(t.ssb, specStore{idx: u.idx, seq: u.seq, addr: u.ea &^ (u.memBytes - 1), size: u.memBytes, value: u.storeVal})

	case isa.ClassBranch:
		u.taken = isa.BranchTaken(in.Op, rf.ReadInt(in.Ra))
		target := u.pc + 4 + uint64(in.Imm)*4
		if u.taken {
			nextPC = target
		}
		//lint:allow hotpathlint DirPredictor implementations are module-local table lookups; none allocate
		predTaken := m.dir.Predict(u.pc, t.ghr)
		if predTaken {
			u.predPC = target // branch target prediction is perfect
		} else {
			u.predPC = u.pc + 4
		}
		t.ghr = t.ghr<<1 | b2u(predTaken)
		u.mispred = predTaken != u.taken

	case isa.ClassJump:
		switch in.Op {
		case isa.OpBr:
			nextPC = u.pc + 4 + uint64(in.Imm)*4
			u.predPC = nextPC
		case isa.OpJal:
			writeInt(isa.RegLR, u.pc+4)
			nextPC = u.pc + 4 + uint64(in.Imm)*4
			u.predPC = nextPC
			m.ras[t.id].Push(u.pc + 4)
		case isa.OpJr, isa.OpJalr:
			nextPC = rf.ReadInt(in.Ra)
			pred, ok := m.ind.Predict(u.pc, t.path)
			if !ok {
				pred = 0
			}
			u.predPC = pred
			u.mispred = pred != nextPC
			if in.Op == isa.OpJalr {
				writeInt(isa.RegLR, u.pc+4)
				m.ras[t.id].Push(u.pc + 4)
			}
			t.path = pathUpdate(t.path, u.predPC)
		case isa.OpRet:
			nextPC = rf.ReadInt(isa.RegLR)
			pred, ok := m.ras[t.id].Pop()
			if !ok {
				pred = 0
			}
			u.predPC = pred
			u.mispred = pred != nextPC
		}

	case isa.ClassPriv:
		switch in.Op {
		case isa.OpMfpr:
			writeInt(in.Rd, t.priv[in.Imm])
		case isa.OpMtpr:
			u.slotKind = slotPriv
			u.slotReg = uint8(in.Imm)
			u.oldVal = t.priv[in.Imm]
			t.priv[in.Imm] = rf.ReadInt(in.Ra)
		case isa.OpTlbwr:
			u.ea = rf.ReadInt(in.Ra)       // faulting VA
			u.storeVal = rf.ReadInt(in.Rb) // PTE
			t.lastTLBWR = ref(u)
		case isa.OpWrtDest:
			// Write the handler-computed value to the excepting
			// instruction's destination register (Section 6). In a
			// traditional in-thread handler the write lands in the
			// application register file now, so the refetched
			// post-exception instructions observe it; in a handler
			// thread the timing side (completeSideEffects) completes
			// the master instruction, whose oracle value already
			// matches.
			u.srcVal = rf.ReadInt(in.Ra)
			if ctx := m.hctx(u.palCtx); ctx != nil && ctx.masterSeq != 0 && t.state != ctxException {
				// The trap squashed (and recycled) the master, so its
				// destination comes from the context snapshot.
				dest := ctx.masterDest
				if dest != isa.RegZero {
					u.slotKind = slotInt
					u.slotReg = dest
					u.oldVal = t.rf.Int[dest]
					t.rf.Int[dest] = u.srcVal
					u.destKind = regInt
					u.destReg = dest
					t.lwInt[dest] = ref(u)
				}
			}
			t.lastTLBWR = ref(u) // RFE serializes behind the destination write
		}

	case isa.ClassRfe:
		if t.state == ctxException {
			nextPC = u.pc // handler thread: fetch ends here
		} else {
			nextPC = t.priv[isa.PrExcPC]
		}
		u.predPC = nextPC
		// The RFE serializes against the handler's TLB write so the
		// refetched faulting instruction cannot issue before the
		// fill (real PALcode has the same ordering constraint).
		addSrc(t.lastTLBWR)
	}

	u.nextPC = nextPC
	u.palAfter = t.inPAL && in.Op != isa.OpRfe
	if u.mispred {
		m.hot.fetchMispred.Inc()
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// loadValue performs the functional (oracle) read for a load. PAL
// loads are physical; application loads translate through the address
// space oracle and observe the thread's speculative store buffer.
// Wrong-path loads to unmapped addresses read zero. Reads are aligned
// to their natural size unless the machine architects unaligned
// loads (TrapUnaligned), in which case non-page-crossing unaligned
// integer loads read their true byte span.
func (m *Machine) loadValue(t *thread, u *uop) uint64 {
	ea := u.ea &^ (u.memBytes - 1)
	if m.cfg.TrapUnaligned && !u.pal && u.inst.Op != isa.OpLdf &&
		u.ea%u.memBytes != 0 && u.ea&(vm.PageSize-1) <= vm.PageSize-u.memBytes {
		ea = u.ea
	}
	if u.pal {
		return m.physReadSized(ea, u.memBytes)
	}
	pa, ok := m.translate(t, ea)
	var v uint64
	if ok {
		v = m.physReadBytes(pa, u.memBytes)
	}
	return t.overlaySSB(u.seq, ea, u.memBytes, v)
}

// physReadBytes reads n bytes little-endian, tolerating any
// alignment within a frame span.
func (m *Machine) physReadBytes(pa, n uint64) uint64 {
	if pa%n == 0 {
		return m.physReadSized(pa, n)
	}
	var v uint64
	for b := uint64(0); b < n; b++ {
		v |= uint64(m.phys.ReadU8(pa+b)) << (b * 8)
	}
	return v
}

func (m *Machine) physReadSized(pa, size uint64) uint64 {
	if size == 4 {
		return uint64(m.phys.ReadU32(pa))
	}
	return m.phys.ReadU64(pa)
}

// addMemDep makes a load wait on the youngest older overlapping
// buffered store (store-to-load forwarding timing).
func (m *Machine) addMemDep(t *thread, u *uop, addSrc func(depRef)) {
	if u.pal {
		return // handler loads read only the page table
	}
	if e, ok := t.lookupSSB(u.seq, u.ea&^(u.memBytes-1), u.memBytes); ok {
		// Buffered stores are always live (stripped at squash/retire
		// before their uop is released), so the handle resolves.
		su := m.at(e.idx)
		//lint:allow hotpathlint addSrc is the caller's local closure, already scanned inline in execFunctional
		addSrc(ref(su))
		u.fwdStore = ref(su)
	}
}
