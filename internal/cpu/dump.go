package cpu

import (
	"fmt"
	"strings"
)

// DumpState renders a human-readable snapshot of the machine for
// debugging stuck or surprising simulations: per-thread fetch state,
// the head of each in-flight queue, window occupancy and the live
// handler contexts.
func (m *Machine) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d  window %d/%d (reserved %d)  retired %d\n",
		m.now, m.windowCount, m.cfg.WindowSize, m.reserved, m.appRetired)
	for ti := range m.threads {
		t := &m.threads[ti]
		fmt.Fprintf(&sb, "thread %d: state=%d pc=%#x pal=%v halted=%v stalled=%v blockedUntil=%d icount=%d fetchbuf=%d ssb=%d\n",
			t.id, t.state, t.pc, t.inPAL, t.haltedFetch, t.fetchStalled,
			t.fetchBlockedUntil, t.icount, len(t.fetchBuf), len(t.ssb))
		for i, ui := range t.inflight {
			if i >= 4 {
				fmt.Fprintf(&sb, "  ... %d more in flight\n", len(t.inflight)-i)
				break
			}
			u := m.at(ui)
			fmt.Fprintf(&sb, "  [%d] seq=%d pc=%#x %v stage=%d wait=%v done=%d handler=%v\n",
				i, u.seq, u.pc, u.inst.Op, u.stage, u.dtlbWait, u.doneAt, u.handlerBy != (hRef{}))
		}
	}
	for i, hi := range m.handlers {
		ctx := &m.hArena[hi]
		masterSeq := ctx.masterSeq
		masterStage := uopStage(0)
		if mu := m.uopAt(ctx.master); mu != nil {
			masterStage = mu.stage
		}
		fmt.Fprintf(&sb, "handler %d: mech=%v kind=%d tid=%d master=%d(stage %d) vpn=%#x filled=%v dead=%v rfeRetired=%v budget=%d stage=%d\n",
			i, ctx.mech, ctx.kind, ctx.tid, masterSeq, masterStage,
			ctx.faultVPN, ctx.filled, ctx.dead, ctx.rfeRetired,
			ctx.fetchBudget, ctx.walkStage)
	}
	return sb.String()
}
