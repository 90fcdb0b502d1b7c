package harness

import (
	"context"
	"fmt"
	"math"

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
	// TotalInsts sums the instructions the functional tier committed
	// across all cells (every instruction of every run).
	TotalInsts uint64
	// DetailedInsts sums the cycle-accurately simulated instructions
	// (subject + baseline windows, warm-up included) — the detail
	// fraction is DetailedInsts / (2*TotalInsts), since an exact
	// comparison simulates every instruction twice.
	DetailedInsts uint64
}

// Figure5Sampled regenerates the Figure 5 mechanism comparison in
// sampled mode: each cell fast-forwards the workload on the
// functional tier and simulates only periodic warm-up+window
// stretches cycle-accurately (core.SampleCompareCtx). Cells run
// through the same executor as the exact experiments — fingerprint,
// journal resume, deadline — and assemble by index, so the tables are
// identical at any parallelism.
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
		res, err := r.exec(c, job{cfg: mechs[mi].cfg, loads: []core.Workload{benches[bi]},
			sample: &spec, sim: simSampled})
		if err != nil {
			return err
		}
		s := sampledFromResult(res)
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

// simSampled estimates the job's penalty per miss against its
// perfect-TLB baseline from sampled windows.
func simSampled(ctx context.Context, j job, _ *core.Probe) (core.Result, uint64, error) {
	s, err := core.SampleCompareCtx(ctx, j.cfg, *j.sample, j.loads[0])
	return sampledResult(s), s.TotalInsts + s.DetailedInsts, err
}

// sampledResult encodes a sampled comparison as a journalable Result:
// counts as counters and the float estimates as their IEEE-754 bits,
// so a resumed cell reconstructs bit-for-bit.
func sampledResult(s core.SampledComparison) core.Result {
	set := stats.NewSet()
	set.Counter("sample.windows").Value = uint64(s.Windows)
	set.Counter("sample.total_insts").Value = s.TotalInsts
	set.Counter("sample.measured_insts").Value = s.MeasuredInsts
	set.Counter("sample.measured_misses").Value = s.MeasuredMisses
	set.Counter("sample.detailed_insts").Value = s.DetailedInsts
	set.Counter("sample.penalty_bits").Value = math.Float64bits(s.PenaltyPerMiss)
	set.Counter("sample.ci95_bits").Value = math.Float64bits(s.CI95)
	set.Counter("sample.misses_per_kinst_bits").Value = math.Float64bits(s.MissesPerKInst)
	return core.Result{AppInsts: s.TotalInsts, DTLBMisses: s.MeasuredMisses, Stats: set}
}

// sampledFromResult inverts sampledResult.
func sampledFromResult(res core.Result) core.SampledComparison {
	get := res.Stats.Get
	return core.SampledComparison{
		Windows:        int(get("sample.windows")),
		TotalInsts:     get("sample.total_insts"),
		MeasuredInsts:  get("sample.measured_insts"),
		MeasuredMisses: get("sample.measured_misses"),
		DetailedInsts:  get("sample.detailed_insts"),
		PenaltyPerMiss: math.Float64frombits(get("sample.penalty_bits")),
		CI95:           math.Float64frombits(get("sample.ci95_bits")),
		MissesPerKInst: math.Float64frombits(get("sample.misses_per_kinst_bits")),
	}
}
