package vm

import "fmt"

// TLB is the shared data TLB, tagged by address-space number so
// multiple application threads can share it. The default organization
// is fully associative with true-LRU replacement (the Alpha 21164
// DTB); a set-associative organization is available for sensitivity
// studies. Entries written by an in-flight exception handler (or a
// speculative hardware walk) are tagged speculative with the identity
// of the fill; they are usable immediately — the paper lets
// instructions consume translations speculatively — but are removed
// if the filling handler is squashed and promoted to committed when
// it retires.
type TLB struct {
	entries []tlbEntry
	sets    int // 1 = fully associative
	ways    int
	stamp   uint64

	Hits      uint64
	Misses    uint64
	Fills     uint64
	SpecKills uint64
}

type tlbEntry struct {
	valid   bool
	asn     uint8
	vpn     uint64
	pfn     uint64
	lru     uint64
	specTag uint64 // 0 = architecturally committed
}

// NewTLB returns an empty fully associative TLB with the given number
// of entries.
func NewTLB(entries int) *TLB {
	return &TLB{entries: make([]tlbEntry, entries), sets: 1, ways: entries}
}

// NewTLBSetAssoc returns an empty set-associative TLB. entries must
// be a multiple of ways; entries/ways sets are indexed by the low
// VPN bits.
func NewTLBSetAssoc(entries, ways int) *TLB {
	if ways < 1 || entries%ways != 0 {
		panic("vm: TLB entries must be a positive multiple of ways")
	}
	return &TLB{entries: make([]tlbEntry, entries), sets: entries / ways, ways: ways}
}

// set returns the entry slice a VPN maps to.
func (t *TLB) set(vpn uint64) []tlbEntry {
	if t.sets <= 1 {
		return t.entries
	}
	s := int(vpn) % t.sets
	return t.entries[s*t.ways : (s+1)*t.ways]
}

// Lookup translates (asn, vpn), updating LRU and hit/miss statistics.
func (t *TLB) Lookup(asn uint8, vpn uint64) (pfn uint64, hit bool) {
	t.stamp++
	set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if e.valid && e.asn == asn && e.vpn == vpn {
			e.lru = t.stamp
			t.Hits++
			return e.pfn, true
		}
	}
	t.Misses++
	return 0, false
}

// Insert fills a translation, evicting the LRU entry if needed.
// specTag is zero for a committed fill or the filler's identity for a
// speculative one. Filling an existing entry refreshes it.
func (t *TLB) Insert(asn uint8, vpn, pfn uint64, specTag uint64) {
	t.stamp++
	t.Fills++
	set := t.set(vpn)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.asn == asn && e.vpn == vpn {
			e.pfn = pfn
			e.lru = t.stamp
			e.specTag = specTag
			return
		}
		if !e.valid {
			victim = i
		} else if set[victim].valid && e.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{
		valid: true, asn: asn, vpn: vpn, pfn: pfn,
		lru: t.stamp, specTag: specTag,
	}
}

// Commit promotes all entries filled under specTag to committed.
func (t *TLB) Commit(specTag uint64) {
	if specTag == 0 {
		return
	}
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].specTag == specTag {
			t.entries[i].specTag = 0
		}
	}
}

// SquashSpec invalidates all entries filled under specTag, modelling
// the rollback of a squashed handler's speculative fill.
func (t *TLB) SquashSpec(specTag uint64) {
	if specTag == 0 {
		return
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.specTag == specTag {
			e.valid = false
			t.SpecKills++
		}
	}
}

// CorruptEntry flips one bit of a currently valid entry, modelling a
// transient fault in the TLB array. pick selects among the valid
// entries in index order, field selects what to corrupt (valid bit,
// VPN tag, PFN, ASN), bit selects the bit within the field. Tag and
// frame flips are confined to the low 20 bits — the width the
// simulated address space exercises — so a flipped entry can alias a
// real translation instead of always decaying into a guaranteed
// miss. Returns a description of the flip and whether a valid entry
// existed to corrupt.
func (t *TLB) CorruptEntry(pick, field, bit uint64) (string, bool) {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	if n == 0 {
		return "", false
	}
	want := int(pick % uint64(n))
	idx := -1
	for i := range t.entries {
		if !t.entries[i].valid {
			continue
		}
		if want == 0 {
			idx = i
			break
		}
		want--
	}
	e := &t.entries[idx]
	switch field % 4 {
	case 0:
		e.valid = false
		return fmt.Sprintf("tlb[%d].valid", idx), true
	case 1:
		b := bit % 20
		e.vpn ^= 1 << b
		return fmt.Sprintf("tlb[%d].vpn bit%d", idx, b), true
	case 2:
		b := bit % 20
		e.pfn ^= 1 << b
		return fmt.Sprintf("tlb[%d].pfn bit%d", idx, b), true
	default:
		b := bit % 8
		e.asn ^= 1 << b
		return fmt.Sprintf("tlb[%d].asn bit%d", idx, b), true
	}
}
