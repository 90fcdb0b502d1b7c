package cpu

import "fmt"

// CheckInvariants, when enabled in the configuration, validates the
// machine's structural invariants every cycle and panics with a
// diagnostic on the first violation. It is used throughout the test
// suite; production runs leave it off (it costs roughly 2x).
//
// The invariants are the properties the paper's mechanism depends on:
// exact window accounting (including reservations), per-thread fetch
// order in every queue, speculative-store-buffer/retirement sync, and
// handler-context consistency — plus the event-driven scheduler's
// state, recomputed from scratch (checkSchedInvariants).
//
//mtexc:coldpath
func (m *Machine) checkInvariants() {
	// Window occupancy accounting matches the window contents.
	count := 0
	for ti := range m.threads {
		for _, ui := range m.threads[ti].inflight {
			u := m.at(ui)
			switch u.stage {
			case stageFetched:
			case stageWindow, stageIssued, stageDone:
				if !(u.excFetch && m.cfg.Limit == LimitNoWindow) {
					count++
				}
			default:
				m.invariantPanic("thread %d inflight holds a uop in stage %d (seq %d)", ti, u.stage, u.seq)
			}
		}
	}
	if count != m.windowCount {
		m.invariantPanic("window occupancy %d, accounted %d", count, m.windowCount)
	}
	m.checkSchedInvariants()
	if m.windowCount < 0 || m.windowCount > m.cfg.WindowSize {
		m.invariantPanic("window occupancy %d outside [0,%d]", m.windowCount, m.cfg.WindowSize)
	}
	if m.reserved < 0 {
		m.invariantPanic("negative reservation %d", m.reserved)
	}

	// Reservation bookkeeping matches the live handlers.
	res := 0
	for _, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if !ctx.dead {
			res += ctx.reserveLeft
		}
		if ctx.reserveLeft < 0 {
			m.invariantPanic("handler reservation negative (%d)", ctx.reserveLeft)
		}
	}
	if res != m.reserved {
		m.invariantPanic("reserved %d, handler sum %d", m.reserved, res)
	}

	for i := range m.threads {
		m.checkThreadInvariants(&m.threads[i])
	}
}

func (m *Machine) checkThreadInvariants(t *thread) {
	// In-flight list is in fetch order, holds only live uops, and its
	// length is the icount.
	var prev uint64
	for i, ui := range t.inflight {
		u := m.at(ui)
		if u.pooled {
			m.invariantPanic("thread %d inflight holds a pooled uop (seq %d)", t.id, u.seq)
		}
		if u.tid != t.id {
			m.invariantPanic("thread %d inflight holds seq %d of thread %d", t.id, u.seq, u.tid)
		}
		if i > 0 && u.seq <= prev {
			m.invariantPanic("thread %d inflight out of order (%d after %d)", t.id, u.seq, prev)
		}
		prev = u.seq
	}
	if len(t.inflight) != t.icount {
		m.invariantPanic("thread %d icount %d, in flight %d", t.id, t.icount, len(t.inflight))
	}
	// The fetch buffer is the youngest part of the in-flight list.
	if n := len(t.fetchBuf); n > 0 && (n > len(t.inflight) || t.fetchBuf[n-1] != t.inflight[len(t.inflight)-1]) {
		m.invariantPanic("thread %d fetch buffer is not the tail of its in-flight list", t.id)
	}

	// The fetch buffer holds only live, fetched-stage entries in order.
	prev = 0
	for i, ui := range t.fetchBuf {
		u := m.at(ui)
		if u.pooled {
			m.invariantPanic("thread %d fetch buffer holds a pooled uop (seq %d)", t.id, u.seq)
		}
		if u.stage != stageFetched {
			m.invariantPanic("thread %d fetch buffer entry %d in stage %d", t.id, i, u.stage)
		}
		if i > 0 && u.seq <= prev {
			m.invariantPanic("thread %d fetch buffer out of order", t.id)
		}
		prev = u.seq
	}
	nonInstant := 0
	for _, ui := range t.fetchBuf {
		if !m.at(ui).instant {
			nonInstant++
		}
	}
	if nonInstant > m.cfg.FetchBufferCap {
		m.invariantPanic("thread %d fetch buffer %d over cap %d", t.id, nonInstant, m.cfg.FetchBufferCap)
	}

	// The speculative store buffer mirrors the unretired stores of the
	// in-flight list exactly, in order.
	var stores []*uop
	for _, ui := range t.inflight {
		u := m.at(ui)
		if u.isStore() && !u.pal {
			stores = append(stores, u)
		}
	}
	if len(stores) != len(t.ssb) {
		m.invariantPanic("thread %d SSB has %d entries, %d unretired stores in flight", t.id, len(t.ssb), len(stores))
	}
	for i, e := range t.ssb {
		su := m.at(e.idx)
		if su.pooled {
			m.invariantPanic("thread %d SSB holds a pooled uop (seq %d)", t.id, e.seq)
		}
		if su != stores[i] {
			m.invariantPanic("thread %d SSB entry %d (seq %d) != in-flight store (seq %d)",
				t.id, i, e.seq, stores[i].seq)
		}
	}

	// Handler-context linkage.
	if t.state == ctxException {
		exc := m.hctx(t.exc)
		if exc == nil || exc.dead {
			m.invariantPanic("thread %d in exception state without a live context", t.id)
		}
		if exc.tid != t.id {
			m.invariantPanic("thread %d exception context claims tid %d", t.id, exc.tid)
		}
	}
	if t.state == ctxIdle && (t.icount != 0 || len(t.fetchBuf) != 0) && !t.primed {
		m.invariantPanic("idle thread %d still holds work", t.id)
	}
}

// invariantPanic aborts the run with a state dump; it never returns.
//
//mtexc:coldpath
func (m *Machine) invariantPanic(format string, args ...any) {
	panic(fmt.Sprintf("cpu: invariant violated at cycle %d: %s", m.now,
		fmt.Sprintf(format, args...)))
}

// checkSchedInvariants recomputes the event-driven scheduler's state
// from the threads' in-flight lists — which uops are executing, which
// window uops are issue candidates, each unissued uop's pending
// producer count, ready cycle and wake-list edges — and panics on any
// difference from the maintained lists and counters.
//
//mtexc:coldpath
func (m *Machine) checkSchedInvariants() {
	regRead := uint64(m.cfg.RegReadStages)
	issued, inCand := 0, 0
	edges := 0 // producer-to-consumer edges still owed a wakeup
	for ti := range m.threads {
		for _, ui := range m.threads[ti].inflight {
			u := m.at(ui)
			if u.stage == stageIssued {
				issued++
			}
			if u.inCand {
				inCand++
				if u.stage == stageFetched || u.pending != 0 {
					m.invariantPanic("seq %d on the candidate list in stage %d with %d pending", u.seq, u.stage, u.pending)
				}
			}
			if !u.unissued() {
				if u.pending != 0 || u.wakeHead != 0 {
					m.invariantPanic("issued seq %d still has %d pending producers or a wake list", u.seq, u.pending)
				}
				continue
			}
			pending := 0
			var readyAt uint64
			if u.stage == stageWindow {
				readyAt = u.windowAt + regRead
			}
			for _, s := range u.srcs {
				p := m.uopAt(s)
				switch {
				case p == nil:
				case p.unissued():
					pending++
				case p.doneAt > readyAt:
					readyAt = p.doneAt
				}
			}
			edges += pending
			if int(u.pending) != pending {
				m.invariantPanic("seq %d counts %d pending producers, has %d", u.seq, u.pending, pending)
			}
			// A retired producer took its completion time with it, but
			// that time is already past: u must become ready exactly
			// when the live producers and the register read allow.
			if u.readyAt < readyAt || max(u.readyAt, m.now) != max(readyAt, m.now) {
				m.invariantPanic("seq %d ready at %d, recomputed %d (cycle %d)", u.seq, u.readyAt, readyAt, m.now)
			}
			if u.stage == stageWindow && !u.dtlbWait && pending == 0 && !u.inCand {
				m.invariantPanic("seq %d is an issue candidate missing from the candidate list", u.seq)
			}
			// Every wake-list edge names a live consumer whose source
			// slot resolves to u.
			for l, n := u.wakeHead, 0; l != 0; n++ {
				c := m.at(l.idx())
				if c.pooled || n > len(m.uops)*len(c.srcs) || m.uopAt(c.srcs[l.slot()]) != u {
					m.invariantPanic("seq %d wake list holds a bad edge to slot %d of seq %d", u.seq, l.slot(), c.seq)
				}
				edges--
				l = c.wakeNext[l.slot()]
			}
		}
	}
	if edges != 0 {
		m.invariantPanic("pending producer counts and wake lists disagree by %d edges", edges)
	}

	seen := make(map[uopIdx]bool)
	live := 0
	for _, r := range m.issued {
		u := m.uopAt(r)
		if u == nil {
			continue
		}
		if u.stage != stageIssued || seen[r.idx] {
			m.invariantPanic("issued list holds seq %d in stage %d (duplicate %v)", u.seq, u.stage, seen[r.idx])
		}
		seen[r.idx] = true
		live++
	}
	if live != issued {
		m.invariantPanic("issued list holds %d live uops, %d are executing", live, issued)
	}

	clear(seen)
	live = 0
	for _, r := range m.cands {
		u := m.uopAt(r)
		if u == nil {
			continue
		}
		if !u.inCand || seen[r.idx] {
			m.invariantPanic("candidate list holds seq %d unmarked or twice", u.seq)
		}
		seen[r.idx] = true
		live++
	}
	if live != inCand {
		m.invariantPanic("candidate list holds %d live uops, %d are marked", live, inCand)
	}
}
