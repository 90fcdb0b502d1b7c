// Package cache models the simulated machine's cache hierarchy with
// the timing structure of the paper's Table 1: split 64 KB 2-way L1
// instruction and data caches with 32-byte lines, a unified 1 MB
// 4-way L2 with 64-byte lines and a 6-cycle latency, a 16-byte-wide
// L1/L2 bus (2-cycle occupancy per 32-byte block), an 11-cycle
// L2/memory bus occupancy, and an 80-cycle memory. Up to 64
// outstanding misses are supported; secondary misses to an
// outstanding line merge with the primary.
//
// The model is timing-only: data values live in the physical memory
// substrate, so the caches track tags, LRU state and dirty bits and
// answer the single question the out-of-order core needs — "at what
// cycle will this access complete?"
package cache

// Config describes one cache level.
type Config struct {
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line, power of two
	Assoc    int    // ways per set
	Latency  uint64 // access latency in cycles (hit time)
}

// Sets reports the number of sets implied by the configuration.
func (c Config) Sets() uint64 { return c.Size / c.LineSize / uint64(c.Assoc) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; higher is more recent
}

// blockSets is the copy-on-write granule: a cache stores its lines in
// blocks of this many sets, a clone shares every block, and each side
// copies a block on its first mutating access to it.
const blockSets = 64

// Cache is one level of set-associative, write-back, write-allocate
// cache with true-LRU replacement.
type Cache struct {
	cfg Config
	// blocks holds blockSets consecutive sets of Assoc ways each (all
	// sets, when the cache has fewer).
	blocks [][]line
	// shared marks the blocks a clone still aliases; nil when the
	// cache has never been cloned.
	shared   []bool
	stamp    uint64
	shift    uint // log2(LineSize)
	setMask  uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	Writebks uint64
	// free holds blocks a recycled cache owned before CloneInto
	// overwrote it, which own copies into instead of allocating.
	free [][]line
}

// New returns an empty cache with the given geometry. It panics on a
// degenerate configuration; configurations come from trusted code.
func New(cfg Config) *Cache {
	nsets := cfg.Sets()
	if nsets == 0 || nsets&(nsets-1) != 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: size/linesize/assoc must yield a power-of-two set count")
	}
	per := min(nsets, blockSets) * uint64(cfg.Assoc)
	backing := make([]line, nsets*uint64(cfg.Assoc))
	blocks := make([][]line, uint64(len(backing))/per)
	for b := range blocks {
		lo := uint64(b) * per
		blocks[b] = backing[lo : lo+per : lo+per]
	}
	return &Cache{
		cfg:     cfg,
		blocks:  blocks,
		shift:   log2(cfg.LineSize),
		setMask: nsets - 1,
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// LineAddr reports the line-aligned address containing pa.
func (c *Cache) LineAddr(pa uint64) uint64 { return pa &^ (c.cfg.LineSize - 1) }

// set returns pa's set.
func (c *Cache) set(pa uint64) []line {
	si := pa >> c.shift & c.setMask
	off := si % blockSets * uint64(c.cfg.Assoc)
	return c.blocks[si/blockSets][off : off+uint64(c.cfg.Assoc)]
}

// unshare gives the cache its own copy of block b if a clone still
// shares it. Every mutating path calls it before it touches a line.
func (c *Cache) unshare(b uint64) {
	if c.shared != nil && c.shared[b] {
		c.own(b)
	}
}

// Victim describes a line displaced by an Access fill.
type Victim struct {
	Addr  uint64 // line address of the evicted line
	Dirty bool   // true when a writeback is required
	Valid bool   // false when the fill used an empty way
}

// Access performs a reference to pa. On a hit it updates LRU (and the
// dirty bit for writes) and reports hit=true. On a miss it fills the
// line — evicting the LRU way — and reports the victim so callers can
// charge writeback bus occupancy. The fill models the completion of
// the miss; the caller is responsible for the timing of the refill
// path.
func (c *Cache) Access(pa uint64, write bool) (hit bool, victim Victim) {
	tag := pa >> c.shift
	c.unshare((tag & c.setMask) / blockSets)
	set := c.set(pa)
	c.stamp++
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.stamp
			if write {
				l.dirty = true
			}
			c.Hits++
			return true, Victim{}
		}
	}
	c.Misses++
	// Choose the invalid way, else true LRU.
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v := &set[vi]
	if v.valid {
		c.Evicts++
		victim = Victim{Addr: v.tag << c.shift, Dirty: v.dirty, Valid: true}
		if v.dirty {
			c.Writebks++
		}
	}
	v.valid = true
	v.dirty = write
	v.tag = tag
	v.lru = c.stamp
	return false, victim
}
