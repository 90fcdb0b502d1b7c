package harness

import (
	"fmt"

	"mtexc/internal/core"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// TLBSweep checks the paper's methodological claim (Section 5.1) that
// presenting results as penalty cycles per miss makes them insensitive
// to TLB size: the miss *count* changes with TLB size, the per-miss
// penalty should not. Rows are benchmarks; columns pair the committed
// fills and the penalty/miss at 32-, 64- and 128-entry DTLBs under
// multithreaded(1).
func TLBSweep(opt Options) (*Table, error) {
	r := newRunner(opt, "TLBSweep")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	sizes := []int{32, 64, 128}
	var cols []string
	for _, sz := range sizes {
		cols = append(cols, fmt.Sprintf("fills@%d", sz), fmt.Sprintf("pen@%d", sz))
	}
	t := NewTable("TLB-size sensitivity: committed fills and penalty/miss vs DTLB entries (multithreaded(1))", names(benches), cols)
	t.Format = "%10.1f"
	err = r.forEach(len(benches)*len(sizes), func(c *cell) error {
		bi, si := c.index/len(sizes), c.index%len(sizes)
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		cfg.DTLBEntries = sizes[si]
		cmp, err := r.compare(c, exactJob(cfg, benches[bi]))
		if err != nil {
			return err
		}
		t.Set(bi, 2*si, float64(cmp.Subject.DTLBMisses))
		t.Set(bi, 2*si+1, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int {
		bi, si := i/len(sizes), i%len(sizes)
		return [][2]int{{bi, 2 * si}, {bi, 2*si + 1}}
	})
	return t, err
}

// PTOrganization compares page-table organizations — the operating-
// system flexibility software-managed TLBs exist to provide (Section
// 2): a linear table (one load per walk) against a two-level radix
// table (two dependent loads). Deeper walks lengthen every handler,
// but the multithreaded mechanism overlaps more of the added latency
// than the trap does.
func PTOrganization(opt Options) (*Table, error) {
	r := newRunner(opt, "PTOrganization")
	benches := []string{"cmp", "vor", "mph"}
	if len(opt.Benchmarks) > 0 {
		benches = opt.Benchmarks
	}
	mechs := []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
	var cols []string
	for _, m := range mechs {
		cols = append(cols, m.name+"/lin", m.name+"/2lvl")
	}
	rowNames := make([]string, len(benches))
	t := NewTable("Page-table organization: penalty cycles/miss, linear vs two-level walks", rowNames, cols)
	for bi, n := range benches {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		t.Rows[bi] = b.Name()
	}
	orgs := []vm.PTOrg{vm.PTLinear, vm.PTTwoLevel}
	cells := len(benches) * len(mechs) * len(orgs)
	err := r.forEach(cells, func(c *cell) error {
		bi := c.index / (len(mechs) * len(orgs))
		mi := c.index / len(orgs) % len(mechs)
		oi := c.index % len(orgs)
		n, org := benches[bi], orgs[oi]
		wb, err := workload.ByName(n)
		if err != nil {
			return err
		}
		if org == vm.PTTwoLevel {
			wb = wb.WithTwoLevelPT()
		}
		cfg := mechs[mi].cfg
		cfg.PageTable = org
		// The two-level workload variant fingerprints differently from
		// the linear one, so each organization gets its own baseline.
		cmp, err := r.compare(c, exactJob(cfg, wb))
		if err != nil {
			return err
		}
		t.Set(bi, mi*2+oi, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int {
		bi := i / (len(mechs) * len(orgs))
		mi := i / len(orgs) % len(mechs)
		oi := i % len(orgs)
		return one(bi, mi*2+oi)
	})
	return t, err
}

// FaultInjection measures the hard-exception path at scale: a
// fraction of each benchmark's data pages is paged out, so first
// touches run the handler to its HARDEXC escalation — under the
// multithreaded mechanism that means reversion to the traditional
// trap plus OS service. Hash-table benchmarks only (pointer-chase
// workloads lose their rings when pages are dropped).
func FaultInjection(opt Options) (*Table, error) {
	r := newRunner(opt, "FaultInjection")
	fractions := []float64{0, 0.25, 0.5}
	benchNames := []string{"cmp", "mph"}
	var rows []string
	for _, n := range benchNames {
		for _, f := range fractions {
			rows = append(rows, fmt.Sprintf("%s %.0f%% out", n, f*100))
		}
	}
	t := NewTable("Fault injection: page-out fraction vs hard-exception traffic (multithreaded(1))", rows,
		[]string{"cycles/Kinst", "pagefaults", "reversions", "fills"})
	t.Format = "%10.1f"
	err := r.forEach(len(benchNames)*len(fractions), func(c *cell) error {
		ri := c.index
		n := benchNames[ri/len(fractions)]
		f := fractions[ri%len(fractions)]
		b, err := workload.ByName(n)
		if err != nil {
			return err
		}
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		w := core.Workload(b)
		if f > 0 {
			w = &workload.Faulty{Inner: b, Fraction: f, Seed: 7}
		}
		res, err := r.exec(c, exactJob(cfg, w))
		if err != nil {
			return err
		}
		t.Set(ri, 0, float64(res.Cycles)/float64(res.AppInsts)*1e3)
		t.Set(ri, 1, float64(res.Stats.Get("os.pagefaults")))
		t.Set(ri, 2, float64(res.Stats.Get("handler.reversions")))
		t.Set(ri, 3, float64(res.DTLBMisses))
		r.log("  faults %-14s %9d cycles  %5d faults  %5d reversions",
			rows[ri], res.Cycles, res.Stats.Get("os.pagefaults"), res.Stats.Get("handler.reversions"))
		return nil
	})
	markFailedCells(t, err, func(ri int) [][2]int {
		return [][2]int{{ri, 0}, {ri, 1}, {ri, 2}, {ri, 3}}
	})
	return t, err
}
