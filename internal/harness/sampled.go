package harness

import (
	"context"
	"fmt"

	"mtexc/internal/core"
	"mtexc/internal/stats"
)

// SampledFigure5 holds the sampled-mode mechanism comparison: the
// penalty-cycles-per-miss estimates and the matching 95% confidence
// half-widths, plus the aggregate cost accounting behind the
// speedup claim.
type SampledFigure5 struct {
	// Est mirrors Figure5's table, estimated from sampled windows.
	Est *Table
	// CI holds the 95% confidence half-width for each estimate.
	CI *Table
	// TotalInsts sums the cells' core.SampledComparison.TotalInsts,
	// the instructions each cell's estimate extrapolates to; each of a
	// benchmark's cells counts the one walk they share.
	TotalInsts uint64
	// DetailedInsts sums the cells' per-comparison
	// core.SampledComparison.DetailedInsts: each cell counts its
	// subject windows and the baseline windows it is paired with, even
	// though the cells of a benchmark share one baseline run. The
	// detail fraction is DetailedInsts / (2*TotalInsts), since an
	// exact comparison simulates every instruction twice.
	DetailedInsts uint64
}

// Figure5Sampled regenerates the Figure 5 mechanism comparison in
// sampled mode. Its cells are benchmark rows: a row's four subjects
// and the perfect-TLB baseline they share simulate only periodic
// warm-up+window stretches cycle-accurately, all in one walk of the
// benchmark on the functional tier (sampledRow), and each subject
// pairs with the baseline's windows (core.SampleEstimate). Each run
// goes through the same executor as the exact experiments —
// fingerprint, the journal's store and resume, deadline — and rows
// assemble by index, so the tables are identical at any parallelism.
// A row runs on one worker, so no more rows run at once than the table
// has.
func Figure5Sampled(opt Options, spec core.SampleSpec) (*SampledFigure5, error) {
	r := newRunner(opt, "Figure5Sampled")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	mechs := r.fig5Mechs()
	out := &SampledFigure5{
		Est: NewTable(fmt.Sprintf("Figure 5 (sampled %s): TLB miss penalty by exception architecture (penalty cycles/miss)", spec),
			names(benches), configNames(mechs)),
		CI: NewTable(fmt.Sprintf("Figure 5 (sampled %s): 95%% confidence half-width", spec),
			names(benches), configNames(mechs)),
	}
	cells := make([]core.SampledComparison, len(benches)*len(mechs))
	err = r.forEach(len(benches), func(c *cell) error {
		row, err := r.sampledRow(c, spec, benches[c.index], mechs)
		if err != nil {
			return err
		}
		for mi, s := range row {
			cells[c.index*len(mechs)+mi] = s
			out.Est.Set(c.index, mi, s.PenaltyPerMiss)
			out.CI.Set(c.index, mi, s.CI95)
		}
		return nil
	})
	// A failed row fails each of its cells, and left their slots zero.
	for _, t := range []*Table{out.Est, out.CI} {
		markFailedCells(t, err, func(bi int) [][2]int {
			row := make([][2]int, len(mechs))
			for mi := range row {
				row[mi] = [2]int{bi, mi}
			}
			return row
		})
		t.AddAverageRow()
	}
	for _, s := range cells {
		out.TotalInsts += s.TotalInsts
		out.DetailedInsts += s.DetailedInsts
	}
	return out, err
}

// sampledRow runs benchmark w's row of sampled Figure 5: each
// mechanism's sampled run and that of the perfect-TLB baseline they
// share, each under its own run key, and returns each mechanism's
// estimate against the baseline. The journal answers the runs it
// holds, and the first of the others to simulate walks w once for all
// of them (core.SampleWindows); the rest take their windows from that
// walk. The instruction count of that run includes the walk's.
func (r *runner) sampledRow(c *cell, spec core.SampleSpec, w core.Workload, mechs []namedConfig) ([]core.SampledComparison, error) {
	// The subjects come first, so the cell describes the first of them.
	// Figure 5's mechanisms differ only in what PerfectOf resets.
	jobs := make([]job, len(mechs)+1)
	for mi, m := range mechs {
		jobs[mi] = job{cfg: m.cfg, loads: []core.Workload{w}, sample: &spec}
	}
	jobs[len(mechs)] = job{cfg: core.PerfectOf(mechs[0].cfg, 1), loads: jobs[0].loads, sample: &spec, baseline: true}
	var todo []job
	for _, j := range jobs {
		if !r.opt.Journal.holds(j.key()) {
			todo = append(todo, j)
		}
	}
	var walked map[string]core.SampledRun
	sim := func(ctx context.Context, j job, _ *core.Probe) (core.Result, uint64, error) {
		var insts uint64
		if walked == nil {
			cfgs := make([]core.Config, len(todo))
			for i, tj := range todo {
				cfgs[i] = tj.cfg
			}
			runs, err := core.SampleWindows(ctx, spec, w, cfgs...)
			if err != nil {
				return core.Result{}, 0, err
			}
			walked = make(map[string]core.SampledRun, len(todo))
			for i, tj := range todo {
				walked[tj.key()] = runs[i]
			}
			insts = runs[0].TotalInsts
		}
		res, detailed := windowsResult(walked[j.key()])
		return res, insts + detailed, nil
	}

	runs := make([]core.SampledRun, len(jobs))
	for i, j := range jobs {
		j.sim = sim
		res, err := r.exec(c, j)
		if err != nil {
			return nil, err
		}
		if runs[i], err = windowsFromResult(res, spec); err != nil {
			return nil, err
		}
		if !j.baseline {
			// A sampled Result totals the measured windows, where an IPC
			// would not describe the run.
			r.log("  %-14s %-13s %9d window cycles  %6d fills%s",
				loadNames(j.loads)[0], label(j.cfg), res.Cycles, res.DTLBMisses, r.opt.Meter.Suffix())
		}
	}
	out := make([]core.SampledComparison, len(mechs))
	for mi := range mechs {
		s, err := core.SampleEstimate(runs[mi], runs[len(mechs)])
		if err != nil {
			return nil, err
		}
		out[mi] = s
	}
	return out, nil
}

// windowsResult encodes a sampled run as a journalable Result: the
// functional-tier count and every window's counts as counters, so a
// resumed cell pairs and estimates bit-for-bit. The Result's cycles,
// instructions and fills are the measured windows' totals, for the
// progress line. detailed counts the run's cycle-accurate
// instructions, warm-up included.
func windowsResult(run core.SampledRun) (res core.Result, detailed uint64) {
	set := stats.NewSet()
	set.Counter("sample.total_insts").Value = run.TotalInsts
	set.Counter("sample.windows").Value = uint64(len(run.Windows))
	for i, w := range run.Windows {
		p := fmt.Sprintf("sample.w%d.", i)
		set.Counter(p + "pos").Value = w.Pos
		set.Counter(p + "warm_insts").Value = w.WarmInsts
		set.Counter(p + "insts").Value = w.Insts
		set.Counter(p + "cycles").Value = w.Cycles
		set.Counter(p + "misses").Value = w.Misses
		res.Cycles += w.Cycles
		res.AppInsts += w.Insts
		res.DTLBMisses += w.Misses
		detailed += w.WarmInsts + w.Insts
	}
	res.Stats = set
	return res, detailed
}

// windowsFromResult inverts windowsResult for a run under spec. A
// counter the encoding always writes that the result lacks fails the
// cell instead of reading as zero: such a result is not a window
// record.
func windowsFromResult(res core.Result, spec core.SampleSpec) (core.SampledRun, error) {
	counters := counterMap(res.Stats)
	missing := ""
	get := func(name string) uint64 {
		v, ok := counters[name]
		if !ok && missing == "" {
			missing = name
		}
		return v
	}
	n := get("sample.windows")
	if n > uint64(len(counters)) {
		return core.SampledRun{}, fmt.Errorf("harness: sampled result claims %d windows in %d counters", n, len(counters))
	}
	run := core.SampledRun{Spec: spec, TotalInsts: get("sample.total_insts"), Windows: make([]core.WindowCounts, n)}
	for i := range run.Windows {
		p := fmt.Sprintf("sample.w%d.", i)
		run.Windows[i] = core.WindowCounts{
			Pos:       get(p + "pos"),
			WarmInsts: get(p + "warm_insts"),
			Insts:     get(p + "insts"),
			Cycles:    get(p + "cycles"),
			Misses:    get(p + "misses"),
		}
	}
	if missing != "" {
		return core.SampledRun{}, fmt.Errorf("harness: sampled result has no %s counter", missing)
	}
	return run, nil
}
