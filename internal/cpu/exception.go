package cpu

import (
	"mtexc/internal/isa"
	"mtexc/internal/vm"
)

// newHandlerCtx takes a handler-context slot from the free list (or
// carves a new one off the hArena), reset to the zero state with its
// handle and recycling generation preserved; the waiter slice's
// capacity is retained across recycles. Growing the arena may move its
// backing array, which is safe only because no caller holds a
// *handlerCtx across a newHandlerCtx call (the arena growth contract
// on Machine).
func (m *Machine) newHandlerCtx() *handlerCtx {
	if n := len(m.hFree); n > 0 {
		i := m.hFree[n-1]
		m.hFree = m.hFree[:n-1]
		ctx := &m.hArena[i]
		*ctx = handlerCtx{idx: i, gen: ctx.gen, waiters: ctx.waiters[:0]}
		return ctx
	}
	i := hIdx(len(m.hArena))
	//lint:allow hotpathlint amortized arena growth, once per exception event while the arena grows to steady state
	m.hArena = append(m.hArena, handlerCtx{idx: i})
	return &m.hArena[i]
}

// releaseHandlerCtx returns a spent context's storage to the free list
// and bumps its generation so every outstanding hRef to it goes stale.
func (m *Machine) releaseHandlerCtx(ctx *handlerCtx) {
	if ctx.pooled {
		return
	}
	ctx.pooled = true
	ctx.gen++
	//lint:allow hotpathlint free-list append into capacity retained across exceptions
	m.hFree = append(m.hFree, ctx.idx)
}

// onDTLBMiss routes a detected data-TLB miss to the configured
// exception architecture. The faulting instruction has already been
// returned to the window not-ready (u.dtlbWait) by the caller's
// contract; this mirrors Section 4.1's recovery of the faulting
// instruction and its dependents.
func (m *Machine) onDTLBMiss(u *uop) {
	u.dtlbWait = true
	u.hadMiss = true
	u.missAt = m.now
	u.faultVPN = u.ea >> vm.PageShift
	m.Stats.Counter("dtlb.misses.detected").Inc()

	// Secondary misses to a page whose fill is already in flight are
	// buffered (Section 4.5). An out-of-order detection where the new
	// miss is *older* than the handler's master relinks the handler to
	// the older instruction so retirement splices correctly.
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		// rfeRetired contexts are spent (they are reaped on the next
		// complete pass, and their master may already have retired and
		// been recycled): a new miss must not attach to one.
		if ctx.dead || ctx.filled || ctx.rfeRetired || ctx.masterTid != u.tid || ctx.faultVPN != u.faultVPN {
			continue
		}
		if ctx.mech == MechTraditional {
			continue // trap in progress; the refetch will re-lookup
		}
		if u.seq < ctx.masterSeq {
			if ctx.mech == MechMultithreaded && !m.cfg.NoRelink {
				m.hot.relinks.Inc()
				if old := m.uopAt(ctx.master); old != nil {
					//lint:allow hotpathlint per-miss waiter bookkeeping; runs once per relink event, not per instruction
					ctx.waiters = append(ctx.waiters, old.idx)
					// The latency span follows the master link: the
					// older instruction is now the splice point.
					old.span = nil
				}
				ctx.setMaster(u)
				u.missMain = true
				u.handlerBy = href(ctx)
				if ctx.span != nil {
					ctx.span.Seq = u.seq
					u.span = ctx.span
				}
				return
			}
			// Without relinking an older same-page miss cannot reuse
			// the in-flight handler; it launches its own fill.
			break
		}
		m.hot.secondaryMisses.Inc()
		//lint:allow hotpathlint per-secondary-miss waiter bookkeeping; amortized over the miss rate
		ctx.waiters = append(ctx.waiters, u.idx)
		u.handlerBy = href(ctx)
		return
	}

	switch m.cfg.Mech {
	case MechTraditional:
		m.trapTraditional(u, kindTLB)
	case MechMultithreaded:
		if h := m.idleContext(kindTLB); h != nil {
			m.spawnHandler(h, u, kindTLB)
		} else {
			// No idle context: revert to the traditional mechanism
			// (the paper's recommended policy for thread exhaustion,
			// Section 4.5).
			m.Stats.Counter("handler.exhausted").Inc()
			m.trapTraditional(u, kindTLB)
		}
	case MechHardware:
		m.startHardwareWalk(u)
	default:
		panic("cpu: TLB miss under a perfect TLB")
	}
}

// onEmulationException routes an unimplemented-instruction exception
// (Section 6's generalized mechanism) to the software handler. Unlike
// TLB misses there is no same-page merging: every occurrence needs
// its own emulation.
func (m *Machine) onEmulationException(u *uop) {
	u.dtlbWait = true
	m.Stats.Counter("emu.exceptions").Inc()
	switch m.cfg.Mech {
	case MechTraditional:
		m.trapTraditional(u, kindEmu)
	case MechMultithreaded:
		if h := m.idleContext(kindEmu); h != nil {
			m.spawnHandler(h, u, kindEmu)
		} else {
			m.Stats.Counter("handler.exhausted").Inc()
			m.trapTraditional(u, kindEmu)
		}
	default:
		panic("cpu: emulation exception under a hardware-popc configuration")
	}
}

// handlerFor selects the PAL handler image for an exception kind.
func (m *Machine) handlerFor(kind excKind) *vm.Handler {
	switch kind {
	case kindEmu:
		return m.emuHand
	case kindUnaligned:
		return m.unalpHand
	}
	return m.hand
}

// onUnalignedException routes an unaligned integer load to the
// software handler. pa is the translated physical address the
// hardware hands the handler.
func (m *Machine) onUnalignedException(u *uop, pa uint64) {
	u.dtlbWait = true
	u.srcVal = pa
	m.Stats.Counter("unaligned.exceptions").Inc()
	switch m.cfg.Mech {
	case MechTraditional:
		m.trapTraditional(u, kindUnaligned)
	case MechMultithreaded:
		if h := m.idleContext(kindUnaligned); h != nil {
			m.spawnHandler(h, u, kindUnaligned)
		} else {
			m.Stats.Counter("handler.exhausted").Inc()
			m.trapTraditional(u, kindUnaligned)
		}
	default:
		panic("cpu: unaligned exception under a hardware configuration")
	}
}

// idleContext finds a context available for exception duty, preferring
// one whose fetch buffer was quick-start-primed with the right
// handler (the history-based exception-type prediction of Section
// 5.4).
func (m *Machine) idleContext(kind excKind) *thread {
	var pick *thread
	for i := range m.threads {
		t := &m.threads[i]
		if t.state != ctxIdle {
			continue
		}
		if m.cfg.QuickStart && t.primed && t.primedKind == kind {
			return t
		}
		if pick == nil {
			pick = t
		}
	}
	return pick
}

// spawnHandler launches the software exception handler for kind in
// idle context h on behalf of faulting instruction u (Section 4.1).
func (m *Machine) spawnHandler(h *thread, u *uop, kind excKind) {
	mt := &m.threads[u.tid]
	hand := m.handlerFor(kind)
	ctx := m.newHandlerCtx()
	ctx.mech = MechMultithreaded
	ctx.kind = kind
	ctx.tid = h.id
	ctx.masterTid = u.tid
	ctx.faultVPN = u.faultVPN
	ctx.faultVA = u.ea
	ctx.excPC = u.pc
	ctx.specTag = u.seq
	ctx.setMaster(u)
	ctx.fetchBudget = hand.CommonLen
	if !m.cfg.NoWindowReservation {
		ctx.reserveLeft = hand.CommonLen
		m.reserved += ctx.reserveLeft
	}
	ctx.detectAt = m.now
	ctx.span = m.Observ.Misses.Begin(u.seq, u.faultVPN, kind.spanName(), "multithreaded", m.now)
	u.span = ctx.span
	u.handlerBy = href(ctx)
	u.missMain = true
	//lint:allow hotpathlint live-handler list append, once per exception event
	m.handlers = append(m.handlers, ctx.idx)

	h.state = ctxException
	h.exc = href(ctx)
	h.inPAL = true
	h.rf = isa.RegFile{} // fresh context registers, undefined by spec
	h.pc = hand.EntryVA
	h.priv[isa.PrFaultVA] = u.ea
	h.priv[isa.PrExcPC] = u.pc
	h.priv[isa.PrPTBase] = mt.as.PTBase()
	h.priv[isa.PrPageSize] = vm.PageSize
	h.priv[isa.PrSrcVal0] = u.srcVal
	h.priv[isa.PrExcInfo] = u.memBytes
	h.priv[isa.PrPalData] = m.pal.DataPA
	h.ghr, h.path = 0, 0
	h.haltedFetch, h.fetchStalled = false, false
	h.fetchBlockedUntil = m.now + 1
	h.lastTLBWR = depRef{}
	h.lwInt = [32]depRef{}
	h.lwFP = [32]depRef{}
	m.Stats.Counter("handler.spawns").Inc()

	switch {
	case m.cfg.Limit == LimitInstantFetch:
		m.materializeHandler(h, ctx, true)
	case m.cfg.QuickStart && h.primed && h.primedKind == kind:
		m.Stats.Counter("handler.quickstarts").Inc()
		h.primed = false
		m.materializeHandler(h, ctx, false)
	case m.cfg.QuickStart && h.primed:
		// The exception-type predictor staged the wrong handler.
		m.Stats.Counter("handler.quickstart.mispredicts").Inc()
		h.primed = false
	}
}

// materializeHandler generates the handler's instructions without
// fetching, into the context's fetch buffer: for quick-start they
// were pre-staged there before the exception occurred; for the
// LimitInstantFetch study they additionally dispatch with zero
// decode/schedule latency and no decode-bandwidth charge. Window
// space rules apply in both cases via the normal dispatch stage.
func (m *Machine) materializeHandler(h *thread, ctx *handlerCtx, instant bool) {
	for ctx.fetchBudget > 0 {
		if !instant && len(h.fetchBuf) >= m.cfg.FetchBufferCap {
			// The fetch buffer can only pre-stage so much handler;
			// the rest is fetched normally once the context runs.
			break
		}
		in, _, ok := m.fetchInst(h, h.pc)
		if !ok {
			break
		}
		u := m.buildUop(h, in)
		u.fetchAt = m.now
		u.availAt = m.now + 1
		u.instant = instant
		m.execFunctional(h, u)
		h.pushFetched(u.idx)
		h.icount++
		ctx.fetchBudget--
		h.pc = u.predPC
		m.postFetchControl(h, u)
		if u.inst.Op == isa.OpRfe {
			break
		}
	}
}

// trapTraditional implements the conventional mechanism: squash from
// the faulting instruction on, redirect fetch to the handler in the
// faulting thread (PAL shadow registers), and resume at the faulting
// PC when the RFE resolves.
func (m *Machine) trapTraditional(u *uop, kind excKind) {
	t := &m.threads[u.tid]
	m.Stats.Counter("trap.traps").Inc()

	m.squashFrom(t, u.seq)
	t.ghr, t.path = u.histBefore, u.pathBefore
	m.ras[t.id].Restore(u.rasCp)

	// An emulated instruction is completed by the handler's WRTDEST;
	// execution resumes past it. A TLB miss re-executes the faulting
	// instruction.
	// An emulated or unaligned instruction is completed by the
	// handler's WRTDEST; execution resumes past it. A TLB miss
	// re-executes the faulting instruction.
	resume := u.pc
	if kind == kindEmu || kind == kindUnaligned {
		resume = u.pc + 4
	}
	ctx := m.newHandlerCtx()
	ctx.mech = MechTraditional
	ctx.kind = kind
	ctx.tid = t.id
	ctx.masterTid = t.id
	ctx.faultVPN = u.faultVPN
	ctx.faultVA = u.ea
	ctx.excPC = resume
	ctx.specTag = u.seq
	ctx.firstSeq = m.seqCounter + 1
	// The master was just squashed; its storage is recycled (so the
	// master reference is empty from the start) and from here on only
	// the setMaster snapshots are read.
	ctx.setMaster(u)
	ctx.span = m.Observ.Misses.Begin(u.seq, u.faultVPN, kind.spanName(), "traditional", m.now)
	//lint:allow hotpathlint live-handler list append, once per trap event
	m.handlers = append(m.handlers, ctx.idx)
	t.trapCtx = href(ctx)

	t.inPAL = true
	t.shadowRF = isa.RegFile{}
	t.lwShadow = [32]depRef{}
	t.lastTLBWR = depRef{}
	t.priv[isa.PrFaultVA] = u.ea
	t.priv[isa.PrExcPC] = resume
	t.priv[isa.PrSrcVal0] = u.srcVal
	t.priv[isa.PrExcInfo] = u.memBytes
	t.priv[isa.PrPalData] = m.pal.DataPA
	t.pc = m.handlerFor(kind).EntryVA
	t.haltedFetch, t.fetchStalled = false, false
	t.fetchBlockedUntil = m.now + 1
}

// startHardwareWalk begins (or queues) a hardware page walk for u.
func (m *Machine) startHardwareWalk(u *uop) {
	active := 0
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if !ctx.dead && ctx.mech == MechHardware && !ctx.filled {
			active++
		}
	}
	if active >= m.cfg.MaxWalkers {
		// All walkers busy: handle traditionally, as the paper
		// advocates for resource exhaustion.
		m.Stats.Counter("walker.exhausted").Inc()
		m.trapTraditional(u, kindTLB)
		return
	}
	ctx := m.newHandlerCtx()
	ctx.mech = MechHardware
	ctx.tid = u.tid
	ctx.masterTid = u.tid
	ctx.faultVPN = u.faultVPN
	ctx.faultVA = u.ea
	ctx.excPC = u.pc
	ctx.specTag = 0 // hardware fills commit immediately
	ctx.setMaster(u)
	ctx.span = m.Observ.Misses.Begin(u.seq, u.faultVPN, kindTLB.spanName(), "hardware", m.now)
	u.span = ctx.span
	u.handlerBy = href(ctx)
	u.missMain = true
	//lint:allow hotpathlint live-handler list append, once per walk event
	m.handlers = append(m.handlers, ctx.idx)
}

// completeWalks processes hardware walks whose page-table load has
// returned: fill the TLB speculatively (unless the faulting
// instruction was squashed meanwhile) and wake the waiters.
func (m *Machine) completeWalks() {
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.mech != MechHardware || !ctx.walkStarted || ctx.filled {
			continue
		}
		if ctx.walkDone > m.now {
			continue
		}
		mt := &m.threads[ctx.masterTid]
		if mt.as.Org() == vm.PTTwoLevel && ctx.walkStage == 0 {
			// First-level walk finished: check the root entry and
			// re-request a memory port for the leaf load.
			root := m.phys.ReadU64(mt.as.RootEntryAddr(ctx.faultVPN))
			if !vm.PTEIsValid(root) {
				ctx.dead = true
				m.hot.walkerFaults.Inc()
				m.Observ.Misses.Abort(ctx.span)
				if mu := m.uopAt(ctx.master); mu != nil && mu.stage != stageSquashed {
					mu.span = nil
					m.trapTraditional(mu, kindTLB)
				}
				continue
			}
			ctx.walkStage = 1
			ctx.walkStarted = false
			continue
		}
		var pte uint64
		if mt.as.Org() == vm.PTTwoLevel {
			root := m.phys.ReadU64(mt.as.RootEntryAddr(ctx.faultVPN))
			pte = m.phys.ReadU64(vm.LeafPTEAddr(root, ctx.faultVPN))
		} else {
			pte = m.phys.ReadU64(mt.as.PTEAddr(ctx.faultVPN))
		}
		if !vm.PTEIsValid(pte) {
			// Page fault: fall back to the software path.
			ctx.dead = true
			m.hot.walkerFaults.Inc()
			m.Observ.Misses.Abort(ctx.span)
			if mu := m.uopAt(ctx.master); mu != nil && mu.stage != stageSquashed {
				mu.span = nil
				m.trapTraditional(mu, kindTLB)
			}
			continue
		}
		m.dtlb.Insert(mt.as.ASN, ctx.faultVPN, vm.PTEPFN(pte), 0)
		m.hot.walkerFills.Inc()
		ctx.filled = true
		if ctx.span != nil {
			// The walk is the whole handler: fill and completion
			// coincide.
			ctx.span.FillAt = m.now
			ctx.span.HandlerDoneAt = m.now
		}
		m.wakeWaiters(ctx)
	}
}

// wakeWaiters releases the master and all buffered secondary misses
// to re-issue through the scheduler.
func (m *Machine) wakeWaiters(ctx *handlerCtx) {
	if ctx.span != nil && ctx.span.WakeAt == 0 {
		ctx.span.WakeAt = m.now
	}
	if mu := m.uopAt(ctx.master); mu != nil && mu.stage != stageSquashed {
		m.unpark(mu)
		mu.wokeAt = m.now
		m.Stats.Histogram("fill.latency").Observe(int64(m.now - mu.missAt))
	}
	for _, wi := range ctx.waiters {
		w := m.at(wi)
		if w.stage != stageSquashed {
			m.unpark(w)
			w.wokeAt = m.now
		}
	}
}

// revertToTraditional handles a HARDEXC executed by a handler thread:
// the multithreaded handler cannot complete this exception (page
// fault), so the work in progress is thrown away and the whole
// handler re-executes through the traditional mechanism (Section 4.3).
func (m *Machine) revertToTraditional(ctx *handlerCtx) {
	m.Stats.Counter("handler.reversions").Inc()
	master := m.uopAt(ctx.master)
	kind := ctx.kind
	m.killHandler(ctx)
	if master != nil && master.stage != stageSquashed {
		m.trapTraditional(master, kind)
	}
}

// killHandler tears down a multithreaded handler instance: squashes
// the handler thread's instructions, rolls back its speculative TLB
// fill, releases its window reservation and frees the context.
func (m *Machine) killHandler(ctx *handlerCtx) {
	if ctx.dead {
		return
	}
	ctx.dead = true
	m.Observ.Misses.Abort(ctx.span)
	m.dtlb.SquashSpec(ctx.specTag)
	m.reserved -= ctx.reserveLeft
	ctx.reserveLeft = 0
	if ctx.mech == MechMultithreaded {
		h := &m.threads[ctx.tid]
		m.squashFrom(h, 0) // everything in the handler context
		m.freeHandlerContext(h, ctx.kind)
	}
	// Unlink survivors so they can miss again and re-launch.
	self := href(ctx)
	if mu := m.uopAt(ctx.master); mu != nil && mu.handlerBy == self {
		mu.handlerBy = hRef{}
		if mu.stage != stageSquashed && mu.dtlbWait && !ctx.filled {
			m.unpark(mu) // re-issue, re-detect
		}
	}
	for _, wi := range ctx.waiters {
		w := m.at(wi)
		if w.handlerBy == self {
			w.handlerBy = hRef{}
			if w.stage != stageSquashed && w.dtlbWait && !ctx.filled {
				m.unpark(w)
			}
		}
	}
}

// freeHandlerContext returns a handler thread to the idle pool and,
// under quick-start, re-primes its fetch buffer with the predicted
// next handler. The exception-type predictor is history-based: it
// predicts the kind just handled (Section 5.4) — perfect when one
// exception class dominates, as the paper assumes.
func (m *Machine) freeHandlerContext(h *thread, kind excKind) {
	h.state = ctxIdle
	h.exc = hRef{}
	h.inPAL = false
	h.haltedFetch, h.fetchStalled = false, false
	h.fetchBuf, h.inflight = h.fetchBack[:0], h.inflightBack[:0]
	h.icount = 0
	h.lastTLBWR = depRef{}
	if m.cfg.QuickStart {
		h.primed = true
		h.primedKind = kind
	}
}

// reapHandlers drops completed/dead handler contexts from the live
// list. Reaped contexts are parked on the zombie list rather than
// recycled: a spent handler must stay resolvable while its master can
// still squash (unlinkSquashedMiss fires reclamation accounting
// through the master's handlerBy reference after the context has left
// the live list).
func (m *Machine) reapHandlers() {
	live := m.handlers[:0]
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.rfeRetired || (ctx.mech == MechHardware && ctx.filled) {
			//lint:allow hotpathlint zombie-list append into capacity retained across exceptions
			m.hZombies = append(m.hZombies, hi)
			continue
		}
		//lint:allow hotpathlint in-place compaction into the handler list's own backing array; never grows
		live = append(live, hi)
	}
	m.handlers = live
	m.releaseSpentHandlers()
}

// releaseSpentHandlers recycles parked contexts whose master reference
// has gone stale — the master uop retired or squashed and left the
// machine, so no remaining reference to the context can fire (handler
// and trap instructions all retire or squash before their context is
// reaped, and waiter unlinks on a recycled context are no-ops).
func (m *Machine) releaseSpentHandlers() {
	z := m.hZombies[:0]
	for _, hi := range m.hZombies {
		ctx := &m.hArena[hi]
		if m.uopAt(ctx.master) == nil {
			m.releaseHandlerCtx(ctx)
			continue
		}
		//lint:allow hotpathlint in-place compaction into the zombie list's own backing array; never grows
		z = append(z, hi)
	}
	m.hZombies = z
}
