package cache

import "testing"

func cloneProbeCfg() Config {
	return Config{Size: 4096, LineSize: 64, Assoc: 2, Latency: 1}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := New(cloneProbeCfg())
	for pa := uint64(0); pa < 32*64; pa += 64 {
		c.Access(pa, pa%128 == 0)
	}

	cl := c.Clone()
	if cl.Hits != c.Hits || cl.Misses != c.Misses || cl.Evicts != c.Evicts {
		t.Fatal("clone counters differ")
	}
	for pa := uint64(0); pa < 32*64; pa += 64 {
		if cl.Probe(pa) != c.Probe(pa) {
			t.Fatalf("clone contents differ at %#x", pa)
		}
	}

	// Accesses through the clone must not move the original's state.
	misses := c.Misses
	cl.Access(1<<20, false)
	if c.Misses != misses || c.Probe(1<<20) {
		t.Fatal("clone access leaked into original")
	}
	// And vice versa: evicting in the original leaves the clone intact.
	pre := cl.Probe(0)
	c.Flush()
	if cl.Probe(0) != pre {
		t.Fatal("original flush reached the clone")
	}
}

// TestHierarchyCloneReplay: after cloning mid-stream, the original and
// the clone must serve an identical access stream with identical
// latencies — bus occupancy, MSHR state and all.
func TestHierarchyCloneReplay(t *testing.T) {
	warm := func(h *Hierarchy) uint64 {
		now := uint64(0)
		for i := uint64(0); i < 400; i++ {
			pa := (i * 1664525) % (1 << 18) &^ 63
			now += h.AccessData(now, pa, i%3 == 0)
			if i%7 == 0 {
				now += h.AccessInst(now, pa^0x4000)
			}
		}
		return now
	}
	h := NewHierarchy(DefaultHierConfig())
	now := warm(h)

	c := h.Clone()
	for i := uint64(0); i < 400; i++ {
		pa := (i * 22695477) % (1 << 18) &^ 63
		lo := h.AccessData(now+i, pa, i%5 == 0)
		lc := c.AccessData(now+i, pa, i%5 == 0)
		if lo != lc {
			t.Fatalf("access %d: latency diverges %d != %d", i, lo, lc)
		}
	}
	if h.L2.Misses != c.L2.Misses || h.L1D.Hits != c.L1D.Hits {
		t.Fatal("counters diverge after identical streams")
	}
}
