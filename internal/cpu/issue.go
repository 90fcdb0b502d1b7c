package cpu

import (
	"sort"

	"mtexc/internal/isa"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
)

// dispatch moves decoded instructions from the per-thread fetch
// buffers into the shared instruction window, consuming the shared
// decode bandwidth. Handler threads decode first (they hold fetch
// priority for the same reason); application threads follow in ICOUNT
// order. Window-full handler dispatch triggers the deadlock-avoidance
// squash of Section 4.4.
func (m *Machine) dispatch() {
	budget := m.cfg.Width
	for _, ti := range m.dispatchOrder() {
		t := &m.threads[ti]
		for len(t.fetchBuf) > 0 {
			u := m.at(t.fetchBuf[0])
			exempt := u.instant ||
				(t.state == ctxException && m.cfg.Limit == LimitNoFetchBW)
			if budget <= 0 && !exempt {
				return
			}
			if u.availAt > m.now {
				break
			}
			if !m.windowFreeFor(t) {
				if t.state == ctxException {
					m.deadlockAvoidSquash(m.hctx(t.exc))
				}
				break
			}
			t.fetchBuf = t.fetchBuf[1:]
			when := m.now + uint64(m.cfg.DecodeStages+m.cfg.ScheduleStages)
			if u.instant {
				when = m.now
			}
			m.addToWindow(u, when)
			if !exempt {
				budget--
			}
			m.hot.dispatchInsts.Inc()
		}
	}
}

// dispatchOrder returns thread ids: handler contexts first, then
// application threads smallest in-flight count first.
func (m *Machine) dispatchOrder() []int {
	order := m.orderScratch[:0]
	for i := range m.threads {
		if m.threads[i].state == ctxException {
			//lint:allow hotpathlint append into capacity-retained scratch bounded by the context count
			order = append(order, i)
		}
	}
	// Application threads, smallest in-flight count first.
	start := len(order)
	for i := range m.threads {
		if m.threads[i].state == ctxRunning {
			//lint:allow hotpathlint same scratch; bounded by the context count
			order = append(order, i)
		}
	}
	app := order[start:]
	for i := 1; i < len(app); i++ {
		for j := i; j > 0 && m.threads[app[j]].icount < m.threads[app[j-1]].icount; j-- {
			app[j], app[j-1] = app[j-1], app[j]
		}
	}
	m.orderScratch = order
	return order
}

// deadlockAvoidSquash frees window space for a blocked handler by
// squashing the youngest post-exception instructions of the master
// thread — never the excepting instruction itself (Section 4.4).
func (m *Machine) deadlockAvoidSquash(ctx *handlerCtx) {
	if ctx == nil || ctx.masterSeq == 0 {
		return
	}
	mt := &m.threads[ctx.masterTid]
	// Per Section 4.4, whenever the handler has instructions ready to
	// enter a full window, instructions from the tail of the main
	// thread are squashed to make room — never the excepting
	// instruction itself. Free enough room for the handler
	// instructions still outside the window in one squash.
	h := &m.threads[ctx.tid]
	need := len(h.fetchBuf) + ctx.fetchBudget
	if need < 1 {
		need = 1
	}
	var victims []*uop
	for _, ui := range m.window {
		u := m.at(ui)
		if u.stage != stageWindow && u.stage != stageIssued && u.stage != stageDone {
			continue
		}
		if u.tid != ctx.masterTid || u.seq <= ctx.masterSeq {
			continue
		}
		if u.pal {
			// Never rewind fetch into the middle of a PAL handler:
			// the refetched tail would run under a stale context.
			continue
		}
		//lint:allow hotpathlint deadlock-avoidance squash is a rare recovery event, not per-instruction work
		victims = append(victims, u)
	}
	if len(victims) == 0 {
		// The master's tail may be occupied by a younger traditional
		// trap handler (PAL instructions are never rewind targets).
		// Squash that whole handler instance and refetch its
		// excepting instruction from scratch; the firstSeq rule in
		// squashFrom reclaims its context.
		// The trap's master was squashed and recycled at redirect; the
		// refetch target comes from the context snapshots.
		if tc := m.hctx(mt.trapCtx); tc != nil && !tc.dead && tc.masterSeq > ctx.masterSeq {
			m.Stats.Counter("window.deadlock.trapsquashes").Inc()
			refetchPC := tc.masterPC
			hist, path, cp := tc.masterHist, tc.masterPath, tc.masterRAS
			m.squashFrom(mt, tc.firstSeq)
			mt.ghr, mt.path = hist, path
			m.ras[mt.id].Restore(cp)
			mt.pc = refetchPC
			mt.inPAL = false
			mt.haltedFetch, mt.fetchStalled = false, false
			mt.fetchBlockedUntil = m.now + 1
			return
		}
		m.Stats.Counter("window.deadlock.stalls").Inc()
		return
	}
	//lint:allow hotpathlint sort runs only on the rare deadlock-recovery event
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq > victims[j].seq })
	if need > len(victims) {
		need = len(victims)
	}
	victim := victims[need-1]
	m.Stats.Counter("window.deadlock.squashes").Inc()
	m.squashFrom(mt, victim.seq)
	// Fetch state rewinds to just before the victim.
	mt.ghr, mt.path = victim.histBefore, victim.pathBefore
	m.ras[mt.id].Restore(victim.rasCp)
	mt.pc = victim.pc
	mt.inPAL = victimMode(victim)
	mt.haltedFetch = false
	mt.fetchStalled = false
}

func victimMode(u *uop) bool { return u.pal }

// fuBudget tracks per-cycle functional-unit availability. Table 1's
// units are all fully pipelined, so each unit accepts one new
// operation per cycle.
type fuBudget struct {
	intALU, intMul, fpAdd, fpMul, fpDiv, mem int
	issue                                    int
}

func (m *Machine) newFUBudget() fuBudget {
	return fuBudget{
		intALU: m.cfg.IntALUs,
		intMul: m.cfg.IntMuls,
		fpAdd:  m.cfg.FPAdds,
		fpMul:  m.cfg.FPMuls,
		fpDiv:  m.cfg.FPDivs,
		mem:    m.cfg.MemPorts,
		issue:  m.cfg.Width,
	}
}

// slotFor reserves the FU and issue slot needed by op, reporting
// whether issue is possible this cycle.
func (b *fuBudget) slotFor(op isa.Op, exempt bool) bool {
	if !exempt && b.issue <= 0 {
		return false
	}
	var unit *int
	switch isa.ClassOf(op) {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch, isa.ClassJump,
		isa.ClassPriv, isa.ClassRfe, isa.ClassHardExc, isa.ClassHalt:
		unit = &b.intALU
	case isa.ClassIntMul, isa.ClassIntDiv:
		unit = &b.intMul
	case isa.ClassFPAdd:
		unit = &b.fpAdd
	case isa.ClassFPMul:
		unit = &b.fpMul
	case isa.ClassFPDiv:
		unit = &b.fpDiv
	case isa.ClassLoad, isa.ClassStore:
		unit = &b.mem
	default:
		unit = &b.intALU
	}
	if exempt {
		return true
	}
	if *unit <= 0 {
		return false
	}
	*unit--
	b.issue--
	return true
}

// issue selects ready instructions oldest-fetched-first and starts
// their execution. Hardware page walks claim memory ports first —
// the walker's page-table load "must be scheduled like other loads"
// (Section 5.1) and serves the oldest stalled instruction in the
// machine.
func (m *Machine) issue() {
	budget := m.newFUBudget()
	if m.cfg.Mech == MechHardware {
		m.startWalks(&budget)
	}
	ready := m.collectReady()
	m.hot.issueReady.Observe(int64(len(ready)))
	blocked := 0 // ready but denied an FU / issue slot this cycle
	for _, ui := range ready {
		u := m.at(ui)
		if u.stage != stageWindow {
			continue // squashed by a trap taken earlier this cycle
		}
		exempt := u.excFetch && m.cfg.Limit == LimitNoExecBW
		if !budget.slotFor(u.inst.Op, exempt) {
			blocked++
			continue
		}
		if !exempt {
			// Book the issue slot before executing: if execution
			// itself traps and squashes this uop, the squash path
			// moves the booking to the waste category.
			kind := obs.SlotUsefulApp
			if u.pal || u.excFetch {
				kind = obs.SlotHandler
			}
			m.Observ.Slots.Use(kind, 1)
			u.issueSlots++
		}
		m.executeUop(u)
	}
	m.Observ.Slots.EndCycle(m.issueResidual(blocked))
}

// issueResidual attributes this cycle's unused issue slots: ready
// instructions denied by structural limits or a populated window with
// nothing ready are window stalls; an empty window under a runnable
// context is a front-end bubble (pipeline refill after a squash);
// otherwise the machine has no work at all.
func (m *Machine) issueResidual(blocked int) obs.SlotKind {
	if blocked > 0 || m.windowCount > 0 {
		return obs.SlotWindowStall
	}
	for i := range m.threads {
		if m.threads[i].runnable() {
			return obs.SlotFetchBubble
		}
	}
	return obs.SlotIdleContext
}

// executeUop begins execution of u at the current cycle, computing
// its completion time. Memory operations translate through the DTLB
// here; a miss parks the instruction and invokes the exception
// architecture (Section 4.1's "returned to the instruction window and
// marked not ready").
func (m *Machine) executeUop(u *uop) {
	t := &m.threads[u.tid]
	u.issuedOnce = true
	u.issueAt = m.now
	m.hot.issueInsts.Inc()

	if u.inst.Op == isa.OpPopc && m.cfg.EmulatePopc && !u.pal &&
		(m.cfg.Mech == MechTraditional || m.cfg.Mech == MechMultithreaded) {
		// The hardware does not implement POPC: raise an
		// instruction-emulation exception (Section 6).
		m.onEmulationException(u)
		return
	}
	if u.isMem() {
		m.executeMem(t, u)
		return
	}
	u.stage = stageIssued
	u.doneAt = m.now + m.cfg.latencyOf(u.inst.Op)
}

func (m *Machine) executeMem(t *thread, u *uop) {
	ea := u.ea &^ (u.memBytes - 1)
	var pa uint64
	switch {
	case u.pal:
		pa = ea // PAL memory references are physical
	case m.cfg.Mech == MechPerfect:
		oraclePA, ok := t.as.Translate(ea)
		if !ok {
			// Wrong-path access to an unmapped page: a perfect TLB
			// still translates nothing; model as a dropped access
			// with load latency only.
			u.stage = stageIssued
			u.doneAt = m.now + m.cfg.latencyOf(u.inst.Op)
			return
		}
		pa = oraclePA
	default:
		vpn := ea >> vm.PageShift
		pfn, hit := m.dtlb.Lookup(t.as.ASN, vpn)
		if !hit {
			m.onDTLBMiss(u)
			return
		}
		pa = pfn<<vm.PageShift | ea&(vm.PageSize-1)
	}

	if m.trapUnalignedLoad(u) {
		// Unaligned integer load under software handling.
		m.pruneInflight(t)
		if hasOlderStores(t, u.seq) {
			// The handler reads memory directly; serialize behind
			// older (unretired) stores so it observes their data.
			// The instruction retries once they drain.
			return
		}
		m.onUnalignedException(u, pa|(u.ea&7))
		return
	}
	u.stage = stageIssued
	if u.isStore() {
		// Stores complete into the store buffer at store latency;
		// the cache access happens for its tag/bus side effects.
		m.hier.AccessData(m.now, pa, true)
		u.doneAt = m.now + m.cfg.Hier.StoreLat
		return
	}
	if st := m.uopAt(u.fwdStore); st != nil && st.stage != stageRetired {
		// Store-to-load forwarding from the speculative store buffer.
		u.doneAt = m.now + 1
		m.hot.memForwards.Inc()
		return
	}
	u.doneAt = m.hier.AccessData(m.now, pa, false)
	if m.cfg.TrapUnaligned && !u.pal && u.ea%u.memBytes != 0 {
		// Hardware-handled unaligned access: one extra cycle.
		u.doneAt++
	}
	if u.pal {
		m.Stats.Histogram("handler.pteload.lat").Observe(int64(u.doneAt - m.now))
		m.Stats.Histogram("handler.pteload.issuedelay").Observe(int64(m.now - u.availAt))
	}
}

// trapUnalignedLoad reports whether u is an integer load that must
// raise an unaligned-access exception under this configuration.
func (m *Machine) trapUnalignedLoad(u *uop) bool {
	if !m.cfg.TrapUnaligned || u.pal || !u.isLoad() || u.inst.Op == isa.OpLdf {
		return false
	}
	if m.cfg.Mech != MechTraditional && m.cfg.Mech != MechMultithreaded {
		return false
	}
	return u.ea%u.memBytes != 0
}

// hasOlderStores reports whether any store older than seq is still
// buffered (unretired) in the thread.
func hasOlderStores(t *thread, seq uint64) bool {
	for i := range t.ssb {
		if t.ssb[i].seq < seq {
			return true
		}
	}
	return false
}

// startWalks begins pending hardware page walks, consuming memory
// ports.
func (m *Machine) startWalks(budget *fuBudget) {
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.mech != MechHardware || ctx.walkStarted {
			continue
		}
		if budget.mem <= 0 {
			return
		}
		budget.mem--
		ctx.walkStarted = true
		mt := &m.threads[ctx.masterTid]
		var addr uint64
		switch {
		case mt.as.Org() == vm.PTTwoLevel && ctx.walkStage == 0:
			addr = mt.as.RootEntryAddr(ctx.faultVPN)
		case mt.as.Org() == vm.PTTwoLevel:
			root := m.phys.ReadU64(mt.as.RootEntryAddr(ctx.faultVPN))
			addr = vm.LeafPTEAddr(root, ctx.faultVPN)
		default:
			addr = mt.as.PTEAddr(ctx.faultVPN)
		}
		// One cycle of FSM overhead around each page-table load.
		ctx.walkDone = m.hier.AccessData(m.now, addr, false) + 1
		if ctx.walkStage == 0 {
			m.hot.walkerWalks.Inc()
		}
	}
}
