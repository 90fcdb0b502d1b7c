package cpu

import (
	"mtexc/internal/bpred"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
)

// Clone returns a deep copy of the machine, safe to run independently
// of the original: every piece of mutable state — physical memory,
// caches, TLB, predictors, the uop and handler-context arenas, the
// per-thread queues and register files, statistics and observability
// collectors — is duplicated, and both copies produce identical
// futures from the shared present.
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
func (m *Machine) Clone() *Machine {
	c := &Machine{
		cfg:       m.cfg,
		phys:      m.phys.Clone(),
		hier:      m.hier.Clone(),
		dtlb:      m.dtlb.Clone(),
		hand:      m.hand,
		pal:       m.pal,
		dir:       bpred.CloneDirPredictor(m.dir),
		ind:       m.ind.Clone(),
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

		Stats: m.Stats.Clone(),

		InjectBug:  m.InjectBug,
		fault:      m.fault,
		faultArmed: m.faultArmed,
		faultRec:   m.faultRec,
	}

	// Arenas and the machine-owned handle lists. Handles carry over
	// unchanged; only the backing storage is duplicated, at the
	// source's capacity, so a clone forked before the arenas filled
	// does not regrow them.
	c.uops = cloneCap(m.uops)
	c.uopFree = cloneCap(m.uopFree)
	c.hArena = cloneCap(m.hArena)
	c.hFree = cloneCap(m.hFree)
	c.issued = cloneCap(m.issued)
	c.cands = cloneCap(m.cands)
	c.handlers = cloneCap(m.handlers)
	c.hZombies = cloneCap(m.hZombies)
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
	// the size of the source's; the image is shared (immutable after
	// Load); the address space is cloned against the cloned physical
	// memory, deduplicated in case contexts share one.
	c.threads = append([]thread(nil), m.threads...)
	asClones := make(map[*vm.AddressSpace]*vm.AddressSpace)
	for i := range c.threads {
		t := &c.threads[i]
		t.setQueues(make([]uopIdx, 2*max(len(t.fetchBack), len(t.inflightBack))), t.fetchBuf, t.inflight)
		t.ssb = append([]specStore(nil), t.ssb...)
		if t.as != nil {
			ca, ok := asClones[t.as]
			if !ok {
				ca = t.as.CloneInto(c.phys)
				asClones[t.as] = ca
			}
			t.as = ca
		}
	}
	c.ras = make([]*bpred.RAS, len(m.ras))
	for i, r := range m.ras {
		c.ras[i] = r.Clone()
	}

	// Observability: the slot ledger and miss recorder copy over; the
	// sampler's sources are closures over the original machine, so a
	// copied sampler rebinds them onto the clone by series name.
	c.Observ = &obs.Observations{
		Slots:  m.Observ.Slots.Clone(),
		Misses: m.Observ.Misses.CloneInto(c.Stats),
	}
	if m.Observ.Sampler != nil {
		c.Observ.Sampler = m.Observ.Sampler.Clone(c.samplerSource)
	}
	c.bindHotStats()
	return c
}

// cloneCap copies s into a new slice of the same length and capacity.
func cloneCap[T any](s []T) []T {
	c := make([]T, len(s), cap(s))
	copy(c, s)
	return c
}
