// Package topology composes N simulated cores into a shared-memory
// cluster: private L1s and TLBs per core, one shared L2 domain (L2
// array, L2 MSHRs, memory bus) behind them, and one physical memory
// every program image is loaded into. A deterministic round-robin
// driver advances the cores one cycle at a time in fixed core order,
// so a cluster run is reproducible at any host parallelism.
//
// The cluster exists to measure how shared-cache interference changes
// the cost of software exception handling: a co-runner that thrashes
// the L2 evicts the page-table entries and handler code the measured
// core's miss handlers depend on.
package topology

import (
	"context"
	"fmt"

	"mtexc/internal/cache"
	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/mem"
	"mtexc/internal/stats"
)

// Config parameterizes a cluster.
type Config struct {
	// Cores is the number of cores sharing the L2.
	Cores int
	// Core configures every core's pipeline, TLB and private L1s; the
	// L2 section of Core.Hier describes the single shared L2.
	Core core.Config
}

// Cluster is a set of cores over one shared L2 domain and one
// physical memory.
type Cluster struct {
	phys  *mem.Physical
	dom   *cache.L2Domain
	cores []*cpu.Machine
	names []string // workload name per core, for reports
	next  int      // the lowest core Load still accepts
}

// New builds an empty cluster: cfg.Cores machines over one physical
// memory and one shared L2 domain. Cores are identical; per-core
// workloads are attached with Load.
func New(cfg Config) (*Cluster, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("topology: need at least one core, got %d", cfg.Cores)
	}
	c := &Cluster{
		phys:  mem.NewPhysical(),
		dom:   cache.NewL2Domain(cfg.Core.Hier.L2),
		names: make([]string, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		hier := cache.NewHierarchyWithL2(cfg.Core.Hier, c.dom)
		c.cores = append(c.cores, cpu.NewOnSubstrate(cfg.Core, c.phys, hier))
	}
	return c, nil
}

// Cores reports the number of cores.
func (c *Cluster) Cores() int { return len(c.cores) }

// Core exposes one core's machine (advanced use: probes, hooks).
func (c *Cluster) Core(i int) *cpu.Machine { return c.cores[i] }

// Domain exposes the shared L2 domain.
func (c *Cluster) Domain() *cache.L2Domain { return c.dom }

// Phys exposes the shared physical memory (advanced use: loading
// images by hand when the caller needs the built image back).
func (c *Cluster) Phys() *mem.Physical { return c.phys }

// Load builds w's program image in the cluster's shared physical
// memory and attaches it to core i. Cores load once each, in
// ascending order, and Load rejects any other: the shared bump
// allocator makes image placement — and therefore L2 set mapping —
// depend on load order.
func (c *Cluster) Load(i int, w core.Workload) error {
	switch {
	case i < 0 || i >= len(c.cores):
		return fmt.Errorf("topology: core %d out of range [0,%d)", i, len(c.cores))
	case i == c.next-1:
		return fmt.Errorf("topology: core %d is already loaded", i)
	case i < c.next:
		return fmt.Errorf("topology: core %d loaded after core %d; load cores in ascending order", i, c.next-1)
	}
	// ASNs are per-core (private TLBs); each core's application runs
	// under ASN 1 like a single-core run. Frames are cluster-unique
	// via the shared allocator, so cores never alias L2 lines.
	img, err := w.Build(c.phys, 1)
	if err != nil {
		return fmt.Errorf("topology: building %s for core %d: %w", w.Name(), i, err)
	}
	if _, err := c.cores[i].AddProgram(img); err != nil {
		return fmt.Errorf("topology: loading %s on core %d: %w", w.Name(), i, err)
	}
	c.cores[i].WarmPageTable(img.Space)
	c.names[i] = w.Name()
	c.next = i + 1
	return nil
}

// SetCancel installs ctx on every core (cpu.Machine.SetCancel), each
// of which polls it on its own cycle count. Must be called before Run.
func (c *Cluster) SetCancel(ctx context.Context) {
	for _, m := range c.cores {
		m.SetCancel(ctx)
	}
}

// Run drives every core to completion under the global round-robin
// clock: each global cycle, every core that is not Done advances
// exactly one cycle through its StepCycle, in ascending core order, so
// each core has the run control of a single machine: its fault plan,
// no-progress watchdog, probe and cancel poll. The returned slice
// holds one Result per core, in core order.
//
// A core's StepCycle error — a *cpu.LivelockError or a
// *cpu.CancelledError — ends the run: it returns wrapped with the
// core's index, alongside every core's partial Result.
func (c *Cluster) Run() ([]core.Result, error) { return c.run(-1) }

// RunUntilDone drives the cluster as Run does, but only until core
// measured is Done. Its Result is exactly Run's: a Done core takes no
// further cycle, and the cores that run on touch only the shared L2
// and their own state, never its counters. The other cores' Results,
// and the shared-L2 totals, cover the cycles simulated so far.
func (c *Cluster) RunUntilDone(measured int) ([]core.Result, error) {
	if measured < 0 || measured >= len(c.cores) {
		return nil, fmt.Errorf("topology: core %d out of range [0,%d)", measured, len(c.cores))
	}
	return c.run(measured)
}

// run is the round-robin loop of Run and RunUntilDone: it stops once
// every core is Done or, when measured is a core, once that core is.
func (c *Cluster) run(measured int) ([]core.Result, error) {
	for active := true; active; {
		active = false
		for i, m := range c.cores {
			if m.Done() {
				continue
			}
			active = true
			if err := m.StepCycle(); err != nil {
				return c.finishAll(), fmt.Errorf("topology: core %d: %w", i, err)
			}
		}
		if measured >= 0 && c.cores[measured].Done() {
			break
		}
	}
	return c.finishAll(), nil
}

func (c *Cluster) finishAll() []core.Result {
	results := make([]core.Result, len(c.cores))
	for i, m := range c.cores {
		results[i] = m.Finish()
	}
	return results
}

// WorkloadNames reports the loaded workload name per core.
func (c *Cluster) WorkloadNames() []string {
	return append([]string(nil), c.names...)
}

// MergedStats assembles a cluster-wide statistics set: every core's
// counters and histograms under a "coreN." prefix (registration order
// preserved within each core), followed by the shared-L2 aggregate
// counters under "l2shared.". Per-core sets stay untouched.
func (c *Cluster) MergedStats(results []core.Result) *stats.Set {
	merged := stats.NewSet()
	for i, res := range results {
		prefix := fmt.Sprintf("core%d.", i)
		res.Stats.Each(func(name string, ctr *stats.Counter, h *stats.Histogram) {
			if ctr != nil {
				merged.Counter(prefix + name).Add(ctr.Value)
			} else {
				merged.Histogram(prefix + name).Merge(h)
			}
		})
	}
	merged.Counter("l2shared.hits").Add(c.dom.L2.Hits)
	merged.Counter("l2shared.misses").Add(c.dom.L2.Misses)
	merged.Counter("l2shared.evicts").Add(c.dom.L2.Evicts)
	merged.Counter("l2shared.memtransfers").Add(c.dom.MemTransfers())
	return merged
}
