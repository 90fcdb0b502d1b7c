package cpu

import (
	"mtexc/internal/isa"
	"mtexc/internal/obs"
)

// retire commits completed instructions in per-thread fetch order.
// Retirement bandwidth is unlimited (Section 5.1). A thread whose
// next-to-retire instruction has a linked multithreaded handler
// splices the handler's retirement in first (Figure 1c): the handler
// retires in its entirety after all pre-exception instructions and
// before the excepting instruction.
func (m *Machine) retire() {
	m.retireBudget = m.cfg.RetireWidth
	if m.retireBudget <= 0 {
		m.retireBudget = int(^uint(0) >> 1) // unlimited (Table 1)
	}
	for ti := range m.threads {
		t := &m.threads[ti]
		if t.state != ctxRunning {
			continue
		}
		for t.state == ctxRunning && m.retireBudget > 0 {
			if len(t.inflight) == 0 {
				break
			}
			u := m.at(t.inflight[0])
			if ctx := m.pendingSplice(u); ctx != nil {
				m.drainHandler(ctx)
				if !ctx.rfeRetired {
					break // splice: wait for the handler to finish
				}
				continue // another handler may splice before u too
			}
			if u.stage != stageDone {
				break
			}
			m.retireUop(t, u)
		}
	}
}

// pendingSplice returns the oldest live multithreaded handler that
// must retire before u. Checking u.handlerBy alone is not enough: an
// instruction that takes a second exception after its first handler
// has filled (TLB miss then unaligned trap, or a re-miss after the
// fill was evicted) gets relinked to the new handler, but the spent
// first handler still owes its spliced retirement — otherwise it
// never drains, its context is never freed, and the machine cannot
// quiesce. The handler list is append-ordered, so the first match is
// the oldest obligation.
func (m *Machine) pendingSplice(u *uop) *handlerCtx {
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.mech != MechMultithreaded || ctx.dead || ctx.rfeRetired {
			continue
		}
		if u.handlerBy == href(ctx) || m.uopAt(ctx.master) == u {
			return ctx
		}
	}
	return nil
}

// drainHandler retires as much of a handler thread as has completed,
// in its own fetch order.
func (m *Machine) drainHandler(ctx *handlerCtx) {
	h := &m.threads[ctx.tid]
	for m.retireBudget > 0 {
		if len(h.inflight) == 0 {
			return
		}
		u := m.at(h.inflight[0])
		if u.stage != stageDone {
			return
		}
		m.retireUop(h, u)
		if ctx.rfeRetired || ctx.dead {
			return
		}
	}
}

// retireUop commits the head instruction of t.
func (m *Machine) retireUop(t *thread, u *uop) {
	u.stage = stageRetired
	m.releaseWindowSlot(u)
	t.icount--
	t.inflight = t.inflight[1:]
	m.retireBudget--
	m.lastProgress = m.now
	m.hot.retireInsts.Inc()
	m.hot.retireClass[isa.ClassOf(u.inst.Op)].Inc()
	if m.RetireHook != nil {
		//lint:allow hotpathlint nil-guarded observability hook; attached only by tests and the fault-injection oracle
		m.RetireHook(RetiredInst{
			Tid: u.tid, Seq: u.seq, PC: u.pc, Op: u.inst.Op,
			PAL: u.pal, HadMiss: u.hadMiss, Cycle: m.now,
		})
	}
	if m.TraceHook != nil {
		m.emitTrace(u, false)
	}

	switch {
	case u.isStore():
		m.commitStore(t, u)
	case u.inst.Op == isa.OpHalt:
		t.state = ctxHalted
	case u.inst.Op == isa.OpRfe:
		m.retireRFE(t, u)
	case u.inst.Op == isa.OpHardExc:
		m.osPageFaultService(t, u)
	}

	if u.span != nil {
		// The excepting instruction reached the splice point: close
		// its latency span.
		u.span.RetireAt = m.now
		m.Observ.Misses.Finish(u.span)
		u.span = nil
	}

	if u.pal {
		t.retiredPAL++
	} else {
		m.appRetired++
		t.retired++
		if u.hadMiss {
			m.Stats.Counter("dtlb.misses.retired").Inc()
			m.Stats.Histogram("miss.stall").Observe(int64(u.wokeAt - u.missAt))
		}
		if u.hadMiss && u.missMain && m.cfg.Mech == MechHardware {
			m.Stats.Counter("dtlb.fills.committed").Inc()
		}
	}
	m.releaseUop(u)
}

// commitStore performs the architectural memory write at retirement.
func (m *Machine) commitStore(t *thread, u *uop) {
	if !t.popSSBHead(u) {
		// The head entry must be this store; anything else means the
		// speculative store buffer lost sync with retirement.
		panic("cpu: speculative store buffer out of sync at store retire")
	}
	ea := u.ea &^ (u.memBytes - 1)
	pa, ok := m.translate(t, ea)
	if !ok {
		return // unmapped commit cannot happen on a correct path
	}
	if u.memBytes == 4 {
		m.phys.WriteU32(pa, uint32(u.storeVal))
	} else {
		m.phys.WriteU64(pa, u.storeVal)
	}
}

// retireRFE finishes an exception handler: the speculative TLB fill
// becomes permanent and the handler instance is released. For a
// multithreaded handler this also frees the hardware context.
func (m *Machine) retireRFE(t *thread, u *uop) {
	ctx := m.hctx(u.palCtx)
	if ctx == nil || ctx.dead {
		return
	}
	m.dtlb.Commit(ctx.specTag)
	ctx.rfeRetired = true
	if ctx.detectAt > 0 && ctx.mech == MechMultithreaded {
		m.Stats.Histogram("handler.lifetime").Observe(int64(m.now - ctx.detectAt))
	}
	if ctx.span != nil {
		ctx.span.HandlerDoneAt = m.now
		if ctx.mech == MechTraditional {
			// The trap's master was squashed at redirect; the RFE is
			// the last observable event of a traditional miss.
			m.Observ.Misses.Finish(ctx.span)
		}
	}
	switch ctx.kind {
	case kindEmu:
		m.Stats.Counter("emu.committed").Inc()
	case kindUnaligned:
		m.Stats.Counter("unaligned.committed").Inc()
	default:
		m.Stats.Counter("dtlb.fills.committed").Inc()
	}
	m.reserved -= ctx.reserveLeft
	ctx.reserveLeft = 0
	switch ctx.mech {
	case MechTraditional:
		if t.trapCtx == href(ctx) {
			t.trapCtx = hRef{}
		}
	case MechMultithreaded:
		m.freeHandlerContext(t, ctx.kind)
	}
}

// osPageFaultService models the operating system servicing a page
// fault raised through the hard-exception path: map the page, install
// the translation, flush the thread and restart it at the excepting
// instruction after the service time.
func (m *Machine) osPageFaultService(t *thread, u *uop) {
	ctx := m.hctx(u.palCtx)
	if ctx == nil {
		// A HARDEXC that lost its context (its handler instance was
		// reclaimed) must still unwedge the thread: flush and resume
		// at the thread's recorded exception PC.
		m.Stats.Counter("os.orphan.hardexc").Inc()
		m.squashFrom(t, u.seq+1)
		t.inPAL = false
		t.pc = t.priv[isa.PrExcPC]
		t.haltedFetch, t.fetchStalled = false, false
		t.fetchBlockedUntil = m.now + 1
		return
	}
	m.Stats.Counter("os.pagefaults").Inc()
	m.Observ.Misses.Abort(ctx.span)
	mt := &m.threads[ctx.masterTid]
	if pfn, err := mt.as.MapPage(ctx.faultVPN); err == nil {
		m.dtlb.Insert(mt.as.ASN, ctx.faultVPN, pfn, 0)
	}
	ctx.dead = true
	m.dtlb.SquashSpec(ctx.specTag)
	if t.trapCtx == href(ctx) {
		t.trapCtx = hRef{}
	}
	// Flush everything younger than the HARDEXC and restart at the
	// faulting instruction once the OS is done.
	m.squashFrom(t, u.seq+1)
	t.ghr, t.path = u.histBefore, u.pathBefore
	m.ras[t.id].Restore(u.rasCp)
	t.inPAL = false
	t.pc = ctx.excPC
	if m.InjectBug == BugResumeSkip {
		// Seeded defect: resume past the faulting instruction instead
		// of at it, so it never re-executes (see cpu.InjectedBug).
		t.pc = ctx.excPC + 4
	}
	t.haltedFetch, t.fetchStalled = false, false
	t.fetchBlockedUntil = m.now + m.cfg.OSFaultCycles
}

// squashFrom squashes every in-flight instruction of t with sequence
// number >= from, undoing their speculative register writes youngest
// first and rebuilding the fetch-order writer tables from the
// survivors. The squashed uops are released last, once no by-pointer
// structure holds them.
func (m *Machine) squashFrom(t *thread, from uint64) {
	idx := len(t.inflight)
	for idx > 0 && m.at(t.inflight[idx-1]).seq >= from {
		idx--
	}
	squashed := t.inflight[idx:]
	for i := len(squashed) - 1; i >= 0; i-- {
		m.squashUop(t, m.at(squashed[i]))
	}
	t.inflight = t.inflight[:idx]
	m.finishSquash(t, from)
	for _, ui := range squashed {
		m.releaseUop(m.at(ui))
	}
}

func (m *Machine) finishSquash(t *thread, from uint64) {
	t.removeSSBFrom(from)

	// The fetch buffer is the youngest part of the in-flight list, so
	// the squash cut its tail.
	fb := len(t.fetchBuf)
	for fb > 0 && m.at(t.fetchBuf[fb-1]).stage == stageSquashed {
		fb--
	}
	t.fetchBuf = t.fetchBuf[:fb]

	// Rebuild last-writer tables from the surviving instructions.
	t.lwInt = [32]depRef{}
	t.lwFP = [32]depRef{}
	t.lwShadow = [32]depRef{}
	t.lastTLBWR = depRef{}
	for _, ui := range t.inflight {
		u := m.at(ui)
		if u.slotKind != slotNone {
			switch u.destKind {
			case regInt:
				if u.pal && !u.excFetch && u.inst.Op != isa.OpWrtDest {
					t.lwShadow[u.destReg] = ref(u)
				} else {
					t.lwInt[u.destReg] = ref(u)
				}
			case regFP:
				t.lwFP[u.destReg] = ref(u)
			}
		}
		if u.inst.Op == isa.OpTlbwr {
			t.lastTLBWR = ref(u)
		}
	}

	// A traditional trap handler whose first instruction fell inside
	// the squashed range dies with it.
	if ctx := m.hctx(t.trapCtx); ctx != nil && !ctx.dead && from <= ctx.firstSeq {
		ctx.dead = true
		m.dtlb.SquashSpec(ctx.specTag)
		m.Observ.Misses.Abort(ctx.span)
		t.trapCtx = hRef{}
	}
}

// squashUop removes one instruction from the machine.
func (m *Machine) squashUop(t *thread, u *uop) {
	if u.stage == stageSquashed || u.stage == stageRetired {
		return
	}
	inWindow := u.stage == stageWindow || u.stage == stageIssued || u.stage == stageDone
	// Leave the wake lists of producers that have not issued. Squash
	// runs youngest first and a uop's producers are older instructions
	// of its own thread, so every younger consumer has already left
	// and u heads each list (later slots were linked later).
	for s := len(u.srcs) - 1; s >= 0; s-- {
		if p := m.uopAt(u.srcs[s]); p != nil && p.unissued() {
			if p.wakeHead != linkOf(u.idx, s) {
				panic("cpu: squashed uop does not head its producer's wake list")
			}
			p.wakeHead = u.wakeNext[s]
		}
	}
	u.stage = stageSquashed
	if inWindow {
		m.releaseWindowSlot(u)
	}
	t.icount--
	if p := m.slotPtr(u); p != nil {
		*p = u.oldVal
	}
	if u.issueSlots > 0 {
		from := obs.SlotUsefulApp
		if u.pal || u.excFetch {
			from = obs.SlotHandler
		}
		m.Observ.Slots.Move(from, obs.SlotSquashWaste, uint64(u.issueSlots))
		u.issueSlots = 0
	}
	m.hot.squashInsts.Inc()
	if m.TraceHook != nil {
		m.emitTrace(u, true)
	}
	if u.excFetch {
		if exc := m.hctx(t.exc); exc != nil && !exc.dead {
			exc.fetchBudget++
		}
	}
	if u.handlerBy != (hRef{}) {
		m.unlinkSquashedMiss(u)
	}
}

// unlinkSquashedMiss detaches a squashed excepting instruction from
// its handler. Squashing the master reclaims the whole handler
// (Section 4.1: squash events check exception sequence numbers to
// reclaim exception threads).
func (m *Machine) unlinkSquashedMiss(u *uop) {
	ctx := m.hctx(u.handlerBy)
	u.handlerBy = hRef{}
	if ctx == nil || ctx.dead {
		return
	}
	if m.uopAt(ctx.master) == u {
		switch ctx.mech {
		case MechMultithreaded:
			m.Stats.Counter("handler.reclaimed").Inc()
			m.killHandler(ctx)
		case MechHardware:
			m.Stats.Counter("walker.cancelled").Inc()
			ctx.dead = true
			m.Observ.Misses.Abort(ctx.span)
		}
		return
	}
	for i, wi := range ctx.waiters {
		if wi == u.idx {
			//lint:allow hotpathlint in-place element removal; reuses the waiter slice's backing array
			ctx.waiters = append(ctx.waiters[:i], ctx.waiters[i+1:]...)
			break
		}
	}
}
