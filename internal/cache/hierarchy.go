package cache

// HierConfig parameterizes the full memory hierarchy. The zero value
// is not useful; use DefaultHierConfig (the paper's Table 1).
type HierConfig struct {
	L1I Config
	L1D Config
	L2  Config

	LoadLat  uint64 // load-use latency on an L1D hit
	StoreLat uint64 // store completion latency on an L1D hit

	MissDetect uint64 // cycles to detect a miss at each level
	L1L2BusOcc uint64 // bus occupancy per L1-line transfer
	L2MemBus   uint64 // bus occupancy per L2-line transfer
	MemLat     uint64 // main-memory access latency
	MSHRs      int    // max outstanding (primary+secondary) misses
}

// DefaultHierConfig reproduces the paper's Table 1 memory system:
// best load-use latencies of 3 (L1), 12 (L2) and 104 (memory) cycles.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:        Config{Size: 64 << 10, LineSize: 32, Assoc: 2, Latency: 1},
		L1D:        Config{Size: 64 << 10, LineSize: 32, Assoc: 2, Latency: 3},
		L2:         Config{Size: 1 << 20, LineSize: 64, Assoc: 4, Latency: 6},
		LoadLat:    3,
		StoreLat:   2,
		MissDetect: 1,
		L1L2BusOcc: 2,  // 32-byte block over a 16-byte bus
		L2MemBus:   11, // 64-byte block over the memory bus
		MemLat:     80,
		MSHRs:      64,
	}
}

// bus serializes transfers with a fixed per-transfer occupancy.
type bus struct {
	freeAt    uint64
	Transfers uint64
}

// reserve books the bus for occ cycles starting no earlier than t and
// returns the completion time of the transfer.
func (b *bus) reserve(t, occ uint64) uint64 {
	start := t
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + occ
	b.Transfers++
	return b.freeAt
}

// L2Domain is the sharing point of the memory system: one L2 cache,
// the memory-side bus behind it, and the L2 MSHRs. A private
// hierarchy owns its domain; an N-core shared-L2 topology passes one
// domain to NewHierarchyWithL2 for every core, so the cores contend
// for L2 capacity and memory bandwidth while keeping private L1s.
type L2Domain struct {
	L2    *Cache
	l2mem bus
	mshr2 mshrFile // outstanding L2-line misses -> L2 fill time
}

// NewL2Domain builds an empty L2 sharing domain.
func NewL2Domain(cfg Config) *L2Domain {
	return &L2Domain{
		L2:    New(cfg),
		mshr2: newMSHRFile(),
	}
}

// MemTransfers reports the number of transfers on the L2/memory bus.
func (d *L2Domain) MemTransfers() uint64 { return d.l2mem.Transfers }

// Hierarchy is the memory system seen by one core: private L1s and
// L1/L2 bus in front of an L2 domain (private by default, shareable
// across cores).
type Hierarchy struct {
	cfg HierConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache // == dom.L2; kept as a field for counter access
	dom *L2Domain

	l1l2 bus

	mshrD mshrFile // outstanding L1D-line misses -> completion
	mshrI mshrFile // outstanding L1I-line misses -> completion

	// Statistics.
	DataAccesses uint64
	InstAccesses uint64
	MSHRMerges   uint64
	MSHRStalls   uint64
}

// NewHierarchy builds an empty hierarchy with a private L2 domain.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return NewHierarchyWithL2(cfg, NewL2Domain(cfg.L2))
}

// NewHierarchyWithL2 builds an empty hierarchy in front of the given
// L2 domain. Passing the same domain to several hierarchies shares
// the L2 array, its MSHRs and the memory bus between them; timing
// stays deterministic as long as the cores are stepped in a fixed
// order.
func NewHierarchyWithL2(cfg HierConfig, dom *L2Domain) *Hierarchy {
	return &Hierarchy{
		cfg:   cfg,
		L1I:   New(cfg.L1I),
		L1D:   New(cfg.L1D),
		L2:    dom.L2,
		dom:   dom,
		mshrD: newMSHRFile(),
		mshrI: newMSHRFile(),
	}
}

// mshrFile is a set of outstanding-miss registers: line -> the cycle
// its fill completes. lo bounds every completion from below, so a
// sweep before lo has nothing to drop and skips the walk, and the
// earliest completion needs a walk only after the entry at lo was
// overwritten.
type mshrFile struct {
	done  map[uint64]uint64
	lo    uint64 // <= every completion in done; ^0 when done is empty
	exact bool   // lo is the earliest completion itself
}

func newMSHRFile() mshrFile {
	return mshrFile{done: make(map[uint64]uint64), lo: ^uint64(0), exact: true}
}

// add records that line's fill completes at t, replacing any entry
// the line already had.
func (f *mshrFile) add(line, t uint64) {
	if old, ok := f.done[line]; ok && old == f.lo {
		f.exact = false
	}
	//lint:allow hotpathlint MSHR insert happens once per cache miss and the files are swept; amortized, covered by the allocs/inst guard
	f.done[line] = t
	if t <= f.lo {
		f.lo, f.exact = t, true
	}
}

// sweep drops the entries complete by now and reports how many
// remain.
func (f *mshrFile) sweep(now uint64) int {
	if now < f.lo {
		return len(f.done)
	}
	lo := ^uint64(0)
	for k, v := range f.done {
		if v <= now {
			delete(f.done, k)
		} else if v < lo {
			lo = v
		}
	}
	f.lo, f.exact = lo, true
	return len(f.done)
}

// earliest reports the earliest outstanding completion, ^0 when none.
func (f *mshrFile) earliest() uint64 {
	if !f.exact {
		lo := ^uint64(0)
		for _, v := range f.done {
			if v < lo {
				lo = v
			}
		}
		f.lo, f.exact = lo, true
	}
	return f.lo
}

// admit enforces the global MSHR limit: if all MSHRs are busy
// at time t, the request is delayed until the earliest completion.
func (h *Hierarchy) admit(t uint64) uint64 {
	n := h.mshrD.sweep(t) + h.mshrI.sweep(t)
	if n < h.cfg.MSHRs {
		return t
	}
	h.MSHRStalls++
	return min(h.mshrD.earliest(), h.mshrI.earliest())
}

// l2Fill models a reference arriving at the L2 at time t for the line
// containing pa, returning when the data is available at the L1/L2
// boundary on the L2 side.
func (h *Hierarchy) l2Fill(t, pa uint64, write bool) uint64 {
	d := h.dom
	l2line := d.L2.LineAddr(pa)
	if done, busy := d.mshr2.done[l2line]; busy && done > t {
		h.MSHRMerges++
		return done
	}
	hit, victim := d.L2.Access(pa, write)
	if hit {
		return t + h.cfg.L2.Latency
	}
	// L2 miss: detect after the array access, fetch from memory,
	// transfer over the L2/memory bus.
	req := t + h.cfg.L2.Latency + h.cfg.MissDetect
	data := req + h.cfg.MemLat
	fill := d.l2mem.reserve(data, h.cfg.L2MemBus)
	if victim.Valid && victim.Dirty {
		d.l2mem.reserve(fill, h.cfg.L2MemBus)
	}
	d.mshr2.add(l2line, fill)
	if len(d.mshr2.done) > 4*h.cfg.MSHRs {
		d.mshr2.sweep(t)
	}
	return fill
}

// AccessData performs a data reference to physical address pa at
// cycle now and returns the cycle at which it completes (data
// available for loads; globally performed for stores).
func (h *Hierarchy) AccessData(now, pa uint64, write bool) uint64 {
	h.DataAccesses++
	lat := h.cfg.LoadLat
	if write {
		lat = h.cfg.StoreLat
	}
	line := h.L1D.LineAddr(pa)
	hit, victim := h.L1D.Access(pa, write)
	if hit {
		// The tag fill happens when the miss is initiated, so a hit
		// on a line whose refill is still in flight is a secondary
		// miss: it merges with the outstanding MSHR entry.
		if done, busy := h.mshrD.done[line]; busy && done > now+lat {
			h.MSHRMerges++
			return done
		}
		return now + lat
	}
	start := h.admit(now + lat)
	atL2 := start + h.cfg.MissDetect
	l2done := h.l2Fill(atL2, pa, false)
	fill := h.l1l2.reserve(l2done, h.cfg.L1L2BusOcc)
	if victim.Valid && victim.Dirty {
		h.l1l2.reserve(fill, h.cfg.L1L2BusOcc)
	}
	h.mshrD.add(line, fill)
	return fill
}

// AccessInst performs an instruction fetch reference for the block
// containing pa at cycle now. It returns the cycle at which the
// block is available; on an L1I hit that is now (the fetch pipeline
// already covers hit latency).
func (h *Hierarchy) AccessInst(now, pa uint64) uint64 {
	h.InstAccesses++
	line := h.L1I.LineAddr(pa)
	hit, _ := h.L1I.Access(pa, false)
	if hit {
		if done, busy := h.mshrI.done[line]; busy && done > now {
			h.MSHRMerges++
			return done
		}
		return now
	}
	start := h.admit(now + h.cfg.L1I.Latency)
	atL2 := start + h.cfg.MissDetect
	l2done := h.l2Fill(atL2, pa, false)
	fill := h.l1l2.reserve(l2done, h.cfg.L1L2BusOcc)
	h.mshrI.add(line, fill)
	return fill
}
