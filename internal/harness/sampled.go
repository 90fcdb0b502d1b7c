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
	// benchmark's cells counts the one functional pass they share.
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
// sampled mode: each benchmark runs once on the functional tier
// (core.FunctionalPass), each cell's subject simulates only periodic
// warm-up+window stretches from that pass's checkpoints
// cycle-accurately (core.SampleWindows), and runner.compare pairs it
// with the perfect-TLB windows its benchmark's cells share
// (core.SampleEstimate). Cells run through the same executor as the
// exact experiments — fingerprint, journal resume, deadline, baseline
// cache — and assemble by index, so the tables are identical at any
// parallelism.
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
	err = r.grid(func(c *cell, bi, mi int) error {
		cmp, err := r.compare(c, job{cfg: mechs[mi].cfg, loads: []core.Workload{benches[bi]},
			sample: &spec, row: c.row, sim: simSampled})
		if err != nil {
			return err
		}
		subj, err := windowsFromResult(cmp.Subject, spec)
		if err != nil {
			return err
		}
		perf, err := windowsFromResult(cmp.Perfect, spec)
		if err != nil {
			return err
		}
		s, err := core.SampleEstimate(subj, perf)
		if err != nil {
			return err
		}
		cells[c.index] = s
		out.Est.Set(bi, mi, s.PenaltyPerMiss)
		out.CI.Set(bi, mi, s.CI95)
		return nil
	}, out.Est, out.CI)
	// Failed cells left their slots zero.
	for _, s := range cells {
		out.TotalInsts += s.TotalInsts
		out.DetailedInsts += s.DetailedInsts
	}
	return out, err
}

// simSampled simulates a sampled job: its configuration alone over its
// row's functional pass (core.SampleWindows). A row's cells run one
// benchmark under one budget and architecture, so its four subjects
// and their shared perfect-TLB baseline, whose job copies this one,
// take their windows from the same checkpoints; the first job of the
// row that simulates runs the pass (a journal answer needs none), and
// the pass goes with the row's other values (rowValues).
// runner.compare pairs the result with the baseline's windows. The
// instruction count includes the pass only in the job that ran it.
func simSampled(ctx context.Context, j job, _ *core.Probe) (core.Result, uint64, error) {
	ran := false
	pass, err := rowValue(j.row, "pass", func() (*core.Pass, error) {
		ran = true
		return core.FunctionalPass(ctx, *j.sample, j.loads[0], j.cfg)
	})
	if err != nil {
		return core.Result{}, 0, err
	}
	runs, err := core.SampleWindows(ctx, pass, j.cfg)
	if err != nil {
		return core.Result{}, 0, err
	}
	res, insts := windowsResult(runs[0])
	if ran {
		insts += pass.TotalInsts
	}
	return res, insts, nil
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
