package cpu

import (
	"mtexc/internal/isa"
	"mtexc/internal/vm"
)

// complete processes instructions whose execution finishes by this
// cycle: branch resolution (with mispredict squash), TLB writes,
// traditional-handler returns, hard-exception reversion, and hardware
// walk completions.
func (m *Machine) complete() {
	done := m.doneScratch[:0]
	keep := m.issued[:0]
	for _, r := range m.issued {
		u := m.uopAt(r)
		if u == nil || u.stage != stageIssued {
			continue // released by a squash
		}
		if u.doneAt <= m.now {
			//lint:allow hotpathlint append into capacity-retained scratch; grows only until the window's high-water mark
			done = append(done, r.idx)
		} else {
			//lint:allow hotpathlint in-place compaction into the issued list's own backing array; never grows
			keep = append(keep, r)
		}
	}
	m.issued = keep
	// Oldest first: an older mispredict squashes younger completions
	// before their (wrong-path) side effects apply. Uops issue in
	// roughly age order, so insertion sort runs in near-linear time.
	for i := 1; i < len(done); i++ {
		for j := i; j > 0 && m.at(done[j]).seq < m.at(done[j-1]).seq; j-- {
			done[j], done[j-1] = done[j-1], done[j]
		}
	}
	m.doneScratch = done
	for _, di := range done {
		u := m.at(di)
		if u.stage != stageIssued {
			continue // squashed by an older completion this cycle
		}
		u.stage = stageDone
		m.completeSideEffects(u)
	}
	if m.cfg.Mech == MechHardware {
		m.completeWalks()
	}
	m.reapHandlers()
}

func (m *Machine) completeSideEffects(u *uop) {
	t := &m.threads[u.tid]
	switch {
	case u.isBranch():
		//lint:allow hotpathlint DirPredictor implementations are module-local table updates; none allocate
		m.dir.Update(u.pc, u.histBefore, u.taken)
		if u.mispred {
			m.resolveMispredict(u)
		}
	case u.inst.Op == isa.OpJr || u.inst.Op == isa.OpJalr:
		m.ind.Update(u.pc, u.pathBefore, u.nextPC)
		if u.mispred {
			m.resolveMispredict(u)
		}
	case u.inst.Op == isa.OpRet:
		if u.mispred {
			m.resolveMispredict(u)
		}
	case u.inst.Op == isa.OpTlbwr:
		m.completeTLBWrite(u)
	case u.inst.Op == isa.OpWrtDest && u.excFetch:
		// The handler wrote the excepting instruction's destination:
		// convert it to a nop — it completes now without executing —
		// and its consumers wake through the normal dataflow.
		ctx := m.hctx(u.palCtx)
		if ctx == nil || ctx.dead {
			break
		}
		if mu := m.uopAt(ctx.master); mu != nil && mu.stage == stageWindow {
			mu.dtlbWait = false
			m.markIssued(mu, m.now+1)
			if ctx.span != nil && ctx.span.FillAt == 0 {
				// The destination write is the service point of an
				// emulation/unaligned exception.
				ctx.span.FillAt = m.now
				ctx.span.WakeAt = m.now
			}
			m.Stats.Counter("emu.destwrites").Inc()
			if ctx.detectAt > 0 {
				m.Stats.Histogram("handler.spawn2wrt").Observe(int64(m.now - ctx.detectAt))
			}
		}
	case u.inst.Op == isa.OpRfe && !u.excFetch:
		// Traditional handler return: the front end can now follow
		// the (unpredictable) return to the faulting instruction.
		t.fetchStalled = false
		t.inPAL = false
		t.pc = u.nextPC
		t.fetchBlockedUntil = m.now + 1
		t.haltedFetch = false
	case u.inst.Op == isa.OpHardExc && u.excFetch:
		// The handler thread discovered it cannot service this
		// exception (page fault): revert to the traditional
		// mechanism (Section 4.3).
		if exc := m.hctx(t.exc); exc != nil {
			m.revertToTraditional(exc)
		}
	}
}

// completeTLBWrite installs the handler's translation as a
// speculative TLB entry — usable immediately, permanent only when the
// handler retires (Section 5.1) — and wakes the instructions parked
// on the fill.
func (m *Machine) completeTLBWrite(u *uop) {
	ctx := m.hctx(u.palCtx)
	if ctx == nil || ctx.dead {
		return
	}
	mt := &m.threads[ctx.masterTid]
	vpn := u.ea >> vm.PageShift
	pte := u.storeVal
	if !vm.PTEIsValid(pte) {
		return // handler would have taken the hard path instead
	}
	m.dtlb.Insert(mt.as.ASN, vpn, vm.PTEPFN(pte), ctx.specTag)
	ctx.filled = true
	if ctx.span != nil && ctx.span.FillAt == 0 {
		ctx.span.FillAt = m.now
	}
	m.Stats.Counter("handler.fills").Inc()
	if ctx.detectAt > 0 {
		m.Stats.Histogram("handler.spawn2fill").Observe(int64(m.now - ctx.detectAt))
	}
	m.wakeWaiters(ctx)
}

// resolveMispredict squashes the wrong path fetched after u and
// redirects fetch to the architecturally correct target. On wrong
// paths the "correct" target is itself garbage; the older mispredict
// that created that path repairs everything when it resolves.
func (m *Machine) resolveMispredict(u *uop) {
	t := &m.threads[u.tid]
	m.hot.resolvedMispred.Inc()
	m.squashFrom(t, u.seq+1)

	// Rewind speculative predictor state to just after u, with u's
	// actual outcome folded in.
	if u.isBranch() {
		t.ghr = u.histBefore<<1 | b2u(u.taken)
		t.path = u.pathBefore
	} else {
		t.ghr = u.histBefore
		t.path = u.pathBefore
		if u.inst.Op == isa.OpJr || u.inst.Op == isa.OpJalr {
			t.path = pathUpdate(u.pathBefore, u.nextPC)
		}
	}
	m.ras[t.id].Restore(u.rasCp)
	switch u.inst.Op {
	case isa.OpJal, isa.OpJalr:
		m.ras[t.id].Push(u.pc + 4)
	case isa.OpRet:
		m.ras[t.id].Pop()
	}

	t.pc = u.nextPC
	t.inPAL = u.palAfter
	t.haltedFetch = false
	t.fetchStalled = false
	t.fetchBlockedUntil = m.now + 1
}
