// Package stats provides lightweight statistics plumbing for the
// simulator: named counters, distributions, and derived rates. All
// structures are single-threaded by design; the simulator is a
// deterministic single-goroutine cycle loop.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	Name  string
	Value uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Value++ }

// Histogram accumulates integer samples and reports summary moments.
type Histogram struct {
	Name    string
	count   uint64
	sum     float64
	sumSq   float64
	min     int64
	max     int64
	buckets map[int64]uint64
	// dense, when set (Set.CachedDenseHist), counts the samples in
	// [0, len(dense)) in place of their buckets entries.
	dense []uint64
	// sorted caches the bucket keys in ascending order for percentile
	// queries; Observe invalidates it.
	sorted []int64
}

// NewHistogram returns an empty histogram with the given name.
func NewHistogram(name string) *Histogram {
	//lint:allow hotpathlint one-time lazy creation behind the cached-handle fast path
	return &Histogram{
		Name: name,
		min:  math.MaxInt64,
		max:  math.MinInt64,
		//lint:allow hotpathlint same: allocated once per histogram name
		buckets: make(map[int64]uint64),
	}
}

// Observe records a sample.
func (h *Histogram) Observe(v int64) {
	h.count++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if uint64(v) < uint64(len(h.dense)) {
		if h.dense[v] == 0 {
			h.sorted = nil // new bucket key: the sorted cache is stale
		}
		h.dense[v]++
		return
	}
	if _, seen := h.buckets[v]; !seen {
		h.sorted = nil
	}
	h.buckets[v]++
}

// add counts n samples of value v in its bucket.
func (h *Histogram) add(v int64, n uint64) {
	if uint64(v) < uint64(len(h.dense)) {
		if h.dense[v] == 0 {
			h.sorted = nil // new bucket key: the sorted cache is stale
		}
		h.dense[v] += n
		return
	}
	if _, seen := h.buckets[v]; !seen {
		h.sorted = nil
	}
	h.buckets[v] += n
}

// bucket reports how many samples of value v were observed.
func (h *Histogram) bucket(v int64) uint64 {
	if uint64(v) < uint64(len(h.dense)) {
		return h.dense[v]
	}
	return h.buckets[v]
}

// Merge folds every sample of other into h, bucket by bucket, so an
// aggregator (e.g. the live-telemetry plane folding per-cell
// miss-latency histograms into one fleet histogram) preserves exact
// percentiles instead of averaging averages. A nil or empty other is
// a no-op; other is not modified.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	h.sumSq += other.sumSq
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	// Each key is touched once; insertion order cannot affect the
	// resulting bucket contents.
	for k, n := range other.buckets {
		h.add(k, n)
	}
	for k, n := range other.dense {
		if n > 0 {
			h.add(int64(k), n)
		}
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or zero for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// StdDev reports the population standard deviation.
func (h *Histogram) StdDev() float64 {
	if h.count == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min reports the smallest sample, or zero for an empty histogram.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or zero for an empty histogram.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile reports the p-th percentile (0 <= p <= 100) using the
// nearest-rank method over the exact sample buckets. The sorted bucket
// keys are cached between calls and rebuilt only after a sample lands
// in a previously unseen bucket.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	keys := h.sorted
	if keys == nil {
		keys = make([]int64, 0, len(h.buckets))
		for k, n := range h.dense {
			if n > 0 {
				keys = append(keys, int64(k))
			}
		}
		for k := range h.buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		h.sorted = keys
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, k := range keys {
		seen += h.bucket(k)
		if seen >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Set is a registry of counters and histograms keyed by name, used as
// the per-simulation statistics sink.
type Set struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	order    []string
}

// NewSet returns an empty statistics registry.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on
// first use.
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	//lint:allow hotpathlint one-time lazy creation behind the cached-handle fast path
	c := &Counter{Name: name}
	//lint:allow hotpathlint same: one insert per counter name
	s.counters[name] = c
	//lint:allow hotpathlint same: one append per counter name
	s.order = append(s.order, name)
	return c
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (s *Set) Histogram(name string) *Histogram {
	if h, ok := s.hists[name]; ok {
		return h
	}
	h := NewHistogram(name)
	//lint:allow hotpathlint one-time lazy creation behind the cached-handle fast path
	s.hists[name] = h
	//lint:allow hotpathlint same: one append per histogram name
	s.order = append(s.order, name)
	return h
}

// CachedCounter is a lazily bound counter handle for hot paths: it
// avoids the map lookup of Set.Counter on every event while keeping
// the Set's first-use registration order intact — the counter is not
// registered until the first Inc/Add, exactly as direct Set.Counter
// calls would register it.
type CachedCounter struct {
	set  *Set
	name string
	c    *Counter
}

// Cached returns a lazily bound handle on the named counter. The
// counter is created and registered on the handle's first Inc.
func (s *Set) Cached(name string) *CachedCounter {
	return &CachedCounter{set: s, name: name}
}

// Inc increments the counter by one, binding it on first use.
func (cc *CachedCounter) Inc() {
	if cc.c == nil {
		cc.c = cc.set.Counter(cc.name)
	}
	cc.c.Value++
}

// CachedHistogram is the histogram analogue of CachedCounter.
type CachedHistogram struct {
	set   *Set
	name  string
	h     *Histogram
	dense []uint64 // handed to the histogram when the handle binds it
}

// CachedHist returns a lazily bound handle on the named histogram,
// registered on the first Observe.
func (s *Set) CachedHist(name string) *CachedHistogram {
	return &CachedHistogram{set: s, name: name}
}

// CachedDenseHist is CachedHist for a histogram observed every cycle
// whose samples mostly lie in [0, n): those are counted in a dense
// array, allocated here rather than on the first Observe, instead of
// the bucket map. A histogram the set already holds (a cloned set)
// is bound as it is.
func (s *Set) CachedDenseHist(name string, n int) *CachedHistogram {
	if h, ok := s.hists[name]; ok {
		return &CachedHistogram{set: s, name: name, h: h}
	}
	return &CachedHistogram{set: s, name: name, dense: make([]uint64, n)}
}

// Observe records a sample, binding the histogram on first use.
func (ch *CachedHistogram) Observe(v int64) {
	if ch.h == nil {
		ch.h = ch.set.Histogram(ch.name)
		if ch.h.count == 0 && ch.h.dense == nil {
			ch.h.dense = ch.dense
		}
	}
	ch.h.Observe(v)
}

// Hist returns the named histogram without creating it, so observers
// (telemetry aggregation, exporters) can peek at a finished run's set
// without perturbing its registration order.
func (s *Set) Hist(name string) (*Histogram, bool) {
	h, ok := s.hists[name]
	return h, ok
}

// Lookup reports the value of the named counter and whether the set
// has it, without creating it.
func (s *Set) Lookup(name string) (uint64, bool) {
	c, ok := s.counters[name]
	if !ok {
		return 0, false
	}
	return c.Value, true
}

// Get reports the value of a counter, or zero if it was never touched.
func (s *Set) Get(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value
	}
	return 0
}

// Each visits every registered statistic in registration order.
// Exactly one of c and h is non-nil per call.
func (s *Set) Each(fn func(name string, c *Counter, h *Histogram)) {
	for _, name := range s.order {
		if c, ok := s.counters[name]; ok {
			fn(name, c, nil)
		} else if h, ok := s.hists[name]; ok {
			fn(name, nil, h)
		}
	}
}

// String renders every registered statistic, one per line, in
// registration order. Histograms report the full summary: moments
// and the p50/p95/p99 tail.
func (s *Set) String() string {
	var b strings.Builder
	for _, name := range s.order {
		if c, ok := s.counters[name]; ok {
			fmt.Fprintf(&b, "%-40s %12d\n", name, c.Value)
		} else if h, ok := s.hists[name]; ok {
			fmt.Fprintf(&b, "%-40s n=%d mean=%.2f sd=%.2f min=%d p50=%d p95=%d p99=%d max=%d\n",
				name, h.Count(), h.Mean(), h.StdDev(), h.Min(),
				h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
		}
	}
	return b.String()
}
