package cpu

import (
	"mtexc/internal/bpred"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
)

// CloneInto returns a deep copy of the machine, safe to run
// independently of the original: every piece of mutable state —
// physical memory, caches, TLB, predictors, the uop and
// handler-context arenas, the per-thread queues and register files,
// statistics and observability collectors — is duplicated, and both
// copies produce identical futures from the shared present.
//
// The struct-of-arrays layout is what makes this a mostly flat copy:
// pipeline structures cross-reference each other by arena handle
// (uopIdx/hIdx), which stay valid against the copied arenas without
// translation. The only pointers that need fixing up are the few that
// escape that discipline — address spaces (rebound to the cloned
// physical memory), live miss spans, and the sampler's reader
// closures.
//
// Immutable structure is shared: program images (code is fixed after
// Load; mutable program state lives in the address space and physical
// memory, which are cloned), the generated handlers and the PAL
// image. Run-control attachments — RetireHook, TraceHook, the cancel
// channel, the probe — are NOT carried over; the clone starts with
// none, and the caller attaches its own.
//
// spare, when non-nil, is a machine no one uses any more, such as a
// finished fault trial or one abandoned mid-run by a panic: the copy
// is made in place of its state and spare is returned. It reuses
// every buffer whose size the Config fixes (predictor tables, arenas,
// thread queues, TLB entries, cache block headers, statistics) and
// the cache blocks and memory frames spare had copied or created, so
// a clone into the previous clone of a machine allocates little.
// Whatever a Result of spare's run still references (Stats, Obs) then
// describes the clone. CloneInto(nil) allocates a new machine.
func (m *Machine) CloneInto(spare *Machine) *Machine {
	if spare == nil {
		spare = new(Machine)
	}
	s, c := *spare, spare // s keeps the spare's buffers while c is overwritten
	*c = Machine{
		cfg:       m.cfg,
		phys:      m.phys.CloneInto(s.phys),
		hier:      m.hier.CloneInto(s.hier),
		dtlb:      m.dtlb.CloneInto(s.dtlb),
		hand:      m.hand,
		pal:       m.pal,
		dir:       bpred.CloneDirPredictorInto(m.dir, s.dir),
		ind:       m.ind.CloneInto(s.ind),
		emuHand:   m.emuHand,
		unalpHand: m.unalpHand,

		dispatched:  m.dispatched,
		windowCount: m.windowCount,
		reserved:    m.reserved,

		rrCursor:     m.rrCursor,
		retireBudget: m.retireBudget,

		now:          m.now,
		seqCounter:   m.seqCounter,
		appRetired:   m.appRetired,
		lastProgress: m.lastProgress,

		Stats: m.Stats.CloneInto(s.Stats),

		InjectBug:  m.InjectBug,
		fault:      m.fault,
		faultArmed: m.faultArmed,
		faultRec:   m.faultRec,

		// Scratch contents are dead between cycles; only the
		// capacity carries over.
		readyScratch: s.readyScratch[:0],
		doneScratch:  s.doneScratch[:0],
		orderScratch: s.orderScratch[:0],
	}

	// Arenas and the machine-owned handle lists. Handles carry over
	// unchanged; only the backing storage is duplicated, at no less
	// than the source's capacity, so a clone forked before the arenas
	// filled does not regrow them.
	c.uops = cloneCap(s.uops, m.uops)
	c.uopFree = cloneCap(s.uopFree, m.uopFree)
	c.hArena = cloneCap(s.hArena, m.hArena)
	c.hFree = cloneCap(s.hFree, m.hFree)
	c.issued = cloneCap(s.issued, m.issued)
	c.cands = cloneCap(s.cands, m.cands)
	c.handlers = cloneCap(s.handlers, m.handlers)
	c.hZombies = cloneCap(s.hZombies, m.hZombies)
	for i := range c.hArena {
		c.hArena[i].waiters = append([]uopIdx(nil), c.hArena[i].waiters...)
	}

	// Live miss spans are the one pointer the arenas hold: a span is
	// shared between a handler context and its master uop, so clone
	// each distinct span once and retarget every reference.
	spans := make(map[*obs.MissSpan]*obs.MissSpan)
	cloneSpan := func(s *obs.MissSpan) *obs.MissSpan {
		if s == nil {
			return nil
		}
		if cs, ok := spans[s]; ok {
			return cs
		}
		cs := new(obs.MissSpan)
		*cs = *s
		spans[s] = cs
		return cs
	}
	for i := range c.uops {
		c.uops[i].span = cloneSpan(c.uops[i].span)
	}
	for i := range c.hArena {
		c.hArena[i].span = cloneSpan(c.hArena[i].span)
	}

	// Threads: per-thread queues are deep-copied into backing arrays
	// the size of the source's (the spare's own, when they are that
	// large); the image is shared (immutable after Load); the address
	// space is cloned against the cloned physical memory, once for
	// contexts that share one.
	c.threads = s.threads
	if cap(c.threads) < len(m.threads) {
		c.threads = make([]thread, len(m.threads))
	}
	c.threads = c.threads[:len(m.threads)]
	asClones := make(map[*vm.AddressSpace]*vm.AddressSpace)
	for i := range c.threads {
		t := &c.threads[i]
		fetchBack, inflightBack, ssb := t.fetchBack, t.inflightBack, t.ssb
		*t = m.threads[i]
		n := max(len(t.fetchBack), len(t.inflightBack))
		t.setQueues(sized(fetchBack, n), sized(inflightBack, n), t.fetchBuf, t.inflight)
		t.ssb = append(ssb[:0], t.ssb...)
		if t.as != nil {
			ca, ok := asClones[t.as]
			if !ok {
				ca = t.as.CloneInto(c.phys)
				asClones[t.as] = ca
			}
			t.as = ca
		}
	}
	c.ras = s.ras[:0]
	for i, r := range m.ras {
		var dst *bpred.RAS
		if i < len(s.ras) {
			dst = s.ras[i]
		}
		c.ras = append(c.ras, r.CloneInto(dst))
	}

	// Observability: the slot ledger and miss recorder copy over; the
	// sampler's sources are closures over the original machine, so a
	// copied sampler rebinds them onto the clone by series name.
	c.Observ = s.Observ
	if c.Observ == nil {
		c.Observ = new(obs.Observations)
	}
	*c.Observ = obs.Observations{
		Slots:  m.Observ.Slots.CloneInto(c.Observ.Slots),
		Misses: m.Observ.Misses.CloneInto(c.Stats, c.Observ.Misses),
	}
	if m.Observ.Sampler != nil {
		c.Observ.Sampler = m.Observ.Sampler.Clone(c.samplerSource)
	}
	c.bindHotStats()
	return c
}

// cloneCap copies src into dst's storage when it holds at least
// src's capacity, and into a new slice of src's length and capacity
// otherwise.
func cloneCap[T any](dst, src []T) []T {
	if cap(dst) < cap(src) {
		dst = make([]T, 0, cap(src))
	}
	return append(dst[:0], src...)
}

// sized returns b when it holds n entries, and a new array of n
// otherwise.
func sized(b []uopIdx, n int) []uopIdx {
	if len(b) != n {
		return make([]uopIdx, n)
	}
	return b
}
