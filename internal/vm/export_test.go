package vm

// Probes of TLB and address-space state that only this package's
// tests use.

// Contains reports whether a translation is present without touching
// LRU or statistics.
func (t *TLB) Contains(asn uint8, vpn uint64) bool {
	set := t.set(vpn)
	for i := range set {
		e := &set[i]
		if e.valid && e.asn == asn && e.vpn == vpn {
			return true
		}
	}
	return false
}

// InvalidateASN drops every entry for an address space (context
// teardown).
func (t *TLB) InvalidateASN(asn uint8) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].asn == asn {
			t.entries[i].valid = false
		}
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// Occupancy reports how many entries are valid.
func (t *TLB) Occupancy() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// IsMapped reports whether the page containing va is resident.
func (as *AddressSpace) IsMapped(va uint64) bool {
	_, ok := as.mirror[va>>PageShift]
	return ok
}
