package cache

import (
	"math/rand"
	"slices"
	"testing"
)

func cloneProbeCfg() Config {
	return Config{Size: 4096, LineSize: 64, Assoc: 2, Latency: 1}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := New(cloneProbeCfg())
	for pa := uint64(0); pa < 32*64; pa += 64 {
		c.Access(pa, pa%128 == 0)
	}

	cl := c.CloneInto(nil)
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

	c := h.CloneInto(nil)
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

// cloneActor is one cache in a clone family plus every operation it
// has seen, from which a never-cloned reference is rebuilt.
type cloneActor struct {
	c    *Cache
	hist []cacheOp
}

type cacheOp struct {
	pa    uint64
	write bool
	kind  byte // 'a' access, 'i' invalidate, 'f' flush
}

func (o cacheOp) apply(c *Cache) {
	switch o.kind {
	case 'a':
		c.Access(o.pa, o.write)
	case 'i':
		c.Invalidate(o.pa)
	case 'f':
		c.Flush()
	}
}

func (a *cloneActor) do(o cacheOp) {
	o.apply(a.c)
	a.hist = append(a.hist, o)
}

func (a *cloneActor) clone() *cloneActor { return a.cloneInto(nil) }

// cloneInto clones a's cache into spare's, which no one uses after.
func (a *cloneActor) cloneInto(spare *Cache) *cloneActor {
	return &cloneActor{c: a.c.CloneInto(spare), hist: append([]cacheOp(nil), a.hist...)}
}

// cacheLines flattens a cache's line state in set order.
func cacheLines(c *Cache) []line {
	var out []line
	for _, b := range c.blocks {
		out = append(out, b...)
	}
	return out
}

// aliasedBlocks counts the blocks a and b still share.
func aliasedBlocks(a, b *Cache) int {
	n := 0
	for i := range a.blocks {
		if &a.blocks[i][0] == &b.blocks[i][0] {
			n++
		}
	}
	return n
}

// TestCacheCloneBlocksCopyOnWrite: every member of a clone family —
// the source, a clone, and a second clone taken after the source has
// stepped on — ends in exactly the state of a never-cloned cache fed
// the same operations, whichever side wrote first. A write copies
// only the block it lands in, and a recycled clone makes its copies in
// the blocks it owned before. Covered for a cache of many blocks and
// for one with fewer sets than a block.
func TestCacheCloneBlocksCopyOnWrite(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 64 << 10, LineSize: 32, Assoc: 2, Latency: 1}, // 1024 sets, 16 blocks
		{Size: 256, LineSize: 32, Assoc: 2, Latency: 1},      // 4 sets, one short block
	} {
		rng := rand.New(rand.NewSource(int64(cfg.Size)))
		op := func() cacheOp {
			o := cacheOp{pa: uint64(rng.Int63n(int64(4*cfg.Size))) &^ (cfg.LineSize - 1),
				write: rng.Intn(3) == 0, kind: 'a'}
			if rng.Intn(20) == 0 {
				o.kind = 'i'
			}
			return o
		}
		check := func(stage string, actors ...*cloneActor) {
			t.Helper()
			for i, a := range actors {
				ref := New(cfg)
				for _, o := range a.hist {
					o.apply(ref)
				}
				if !slices.Equal(cacheLines(a.c), cacheLines(ref)) || a.c.stamp != ref.stamp ||
					a.c.Hits != ref.Hits || a.c.Misses != ref.Misses ||
					a.c.Evicts != ref.Evicts || a.c.Writebks != ref.Writebks {
					t.Errorf("%d sets, %s: cache %d differs from its never-cloned reference",
						cfg.Sets(), stage, i)
				}
			}
		}

		src := &cloneActor{c: New(cfg)}
		for i := 0; i < 500; i++ {
			src.do(op())
		}
		cl := src.clone()
		nblocks := len(src.c.blocks)
		if got := aliasedBlocks(src.c, cl.c); got != nblocks {
			t.Fatalf("%d sets: fresh clone shares %d of %d blocks", cfg.Sets(), got, nblocks)
		}
		cl.do(cacheOp{pa: 0, kind: 'a', write: true})
		if got := aliasedBlocks(src.c, cl.c); got != nblocks-1 {
			t.Errorf("%d sets: one write unshared %d blocks, want 1", cfg.Sets(), nblocks-got)
		}
		for i := 0; i < 400; i++ {
			src.do(op())
			cl.do(op())
		}
		check("after writes on both sides", src, cl)

		again := src.clone()
		for i := 0; i < 400; i++ {
			again.do(op())
			src.do(op())
			cl.do(op())
		}
		check("after re-cloning the stepped source", src, cl, again)

		cl.do(cacheOp{kind: 'f'})
		for i := 0; i < 100; i++ {
			src.do(op())
			again.do(op())
		}
		check("after a flush of the first clone", src, cl, again)

		// Recycling a clone that owns some blocks and still shares the
		// rest with its source, as the storage of a new clone: the
		// blocks it owned, and only those, take its later copies.
		part := src.clone()
		for i := 0; i < 20; i++ {
			part.do(op())
		}
		owned := nblocks - aliasedBlocks(src.c, part.c)
		re := src.cloneInto(part.c)
		if re.c != part.c || len(re.c.free) != owned {
			t.Errorf("%d sets: recycled clone kept %d spare blocks, want the %d it owned", cfg.Sets(), len(re.c.free), owned)
		}
		for i := 0; i < 400; i++ {
			re.do(op())
			src.do(op())
			again.do(op())
		}
		check("after recycling a clone", src, cl, again, re)

		// A cache of another geometry lends none of its blocks.
		other := New(Config{Size: 512, LineSize: 32, Assoc: 4, Latency: 1})
		if odd := src.cloneInto(other); len(odd.c.free) != 0 {
			t.Errorf("%d sets: a cache of another geometry kept %d blocks", cfg.Sets(), len(odd.c.free))
		}
	}
}
