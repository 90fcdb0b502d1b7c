package core

import (
	"context"
	"fmt"
	"math"

	"mtexc/internal/cpu"
	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// SampleSpec parameterizes SMARTS-style sampled simulation: execute
// the whole program on the functional fast-forward tier, and every
// Period instructions drop into cycle-accurate mode for a
// Warmup+Window stretch — the warm-up prefix runs detailed but
// unmeasured, seeding the TLB, caches and predictor from cold, and
// only the Window instructions enter the estimate.
type SampleSpec struct {
	// Period is the instruction distance from one detailed-window
	// start to the next.
	Period uint64
	// Warmup is the detailed-but-unmeasured prefix of each window.
	Warmup uint64
	// Window is the measured instruction count per window.
	Window uint64
}

func (s SampleSpec) validate() error {
	if s.Window == 0 {
		return fmt.Errorf("core: SampleSpec.Window must be positive")
	}
	if s.Period < s.Warmup+s.Window {
		return fmt.Errorf("core: SampleSpec.Period (%d) must cover Warmup+Window (%d)",
			s.Period, s.Warmup+s.Window)
	}
	return nil
}

// String renders the spec in the CLI flag form period:warmup:window.
func (s SampleSpec) String() string {
	return fmt.Sprintf("%d:%d:%d", s.Period, s.Warmup, s.Window)
}

// ParseSampleSpec parses the period:warmup:window flag form.
func ParseSampleSpec(v string) (SampleSpec, error) {
	var s SampleSpec
	if _, err := fmt.Sscanf(v, "%d:%d:%d", &s.Period, &s.Warmup, &s.Window); err != nil {
		return s, fmt.Errorf("core: sample spec %q is not period:warmup:window", v)
	}
	return s, s.validate()
}

// SampledComparison is the sampled-mode analogue of Comparison: a
// penalty-cycles-per-miss estimate extrapolated from the measured
// windows, with a 95% confidence interval from the across-window
// variance of the ratio estimator.
type SampledComparison struct {
	Spec SampleSpec
	// Windows is the number of detailed windows measured.
	Windows int
	// TotalInsts is the instruction count the functional tier
	// committed — the full run the estimate extrapolates to.
	TotalInsts uint64
	// MeasuredInsts / MeasuredMisses are the window totals entering
	// the estimate (subject machine).
	MeasuredInsts  uint64
	MeasuredMisses uint64
	// DetailedInsts counts every cycle-accurately simulated
	// instruction, warm-up included, of the subject's windows and of
	// the baseline windows they are paired with — the cost side of the
	// speedup claim. It is a per-comparison count: comparisons that
	// share one baseline run each count its windows.
	DetailedInsts uint64
	// PenaltyPerMiss estimates the paper's metric: extra cycles vs. a
	// perfect TLB per committed fill.
	PenaltyPerMiss float64
	// CI95 is the half-width of the 95% confidence interval on
	// PenaltyPerMiss (infinite below two windows).
	CI95 float64
	// MissesPerKInst is the measured committed-fill density,
	// extrapolating total misses as TotalInsts*MissesPerKInst/1000.
	MissesPerKInst float64
}

// WindowCounts are the counter deltas of one detailed window.
type WindowCounts struct {
	Pos       uint64 // functional-tier instruction count at the window's start
	WarmInsts uint64 // instructions retired during warm-up
	Insts     uint64 // instructions retired in the measured window
	Cycles    uint64 // cycles spent in the measured window
	Misses    uint64 // committed fills in the measured window
}

// SampledRun is one configuration's detailed windows over a
// functional pass, in position order: half of a sampled comparison,
// before SampleEstimate pairs it with the other half.
type SampledRun struct {
	Spec SampleSpec
	// TotalInsts is the instruction count the functional tier
	// committed.
	TotalInsts uint64
	Windows    []WindowCounts
}

// SampleCompare estimates Compare's penalty-per-miss for one workload
// without simulating the whole run cycle-accurately: SampleWindows
// runs the subject and its perfect-TLB baseline (PerfectOf) over one
// functional pass, and SampleEstimate pairs their windows.
func SampleCompare(cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	return SampleCompareCtx(context.Background(), cfg, spec, w)
}

// SampleCompareCtx is SampleCompare with cancellation (see
// SampleWindows).
func SampleCompareCtx(ctx context.Context, cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	if cfg.Mech == MechPerfect {
		return SampledComparison{}, fmt.Errorf("core: SampleCompare subject cannot be the perfect baseline")
	}
	runs, err := SampleWindows(ctx, spec, w, cfg, PerfectOf(cfg, 1))
	if err != nil {
		return SampledComparison{}, err
	}
	return SampleEstimate(runs[0], runs[1])
}

// SampleWindows runs the detailed windows of one or more
// configurations over a single functional pass of w. The functional tier
// executes every instruction; at each sampling position one fresh
// cycle-accurate machine per configuration takes over the
// architectural state (WindowMachine) and runs the warm-up prefix and
// the measured window over the identical instruction stream. The pass
// depends on the budget and the architecture, so the configurations
// must agree on MaxInsts and TrapUnaligned. A window's counts do not
// depend on the other configurations in the pass.
//
// Every window machine polls ctx, and the functional tier checks it
// between sampling periods, so a done ctx aborts the pass with a
// *cpu.CancelledError carrying ctx.Err() as its cause.
func SampleWindows(ctx context.Context, spec SampleSpec, w Workload, cfgs ...Config) ([]SampledRun, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	for _, c := range cfgs[1:] {
		if c.MaxInsts != cfgs[0].MaxInsts || c.TrapUnaligned != cfgs[0].TrapUnaligned {
			return nil, fmt.Errorf("core: sampled configurations disagree on MaxInsts or TrapUnaligned, which fix the functional pass")
		}
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", w.Name(), err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfgs[0].TrapUnaligned})
	if err != nil {
		return nil, err
	}

	runs := make([]SampledRun, len(cfgs))
	for i := range runs {
		runs[i].Spec = spec
	}
	budget := cfgs[0].MaxInsts
	detail := spec.Warmup + spec.Window
	pos := uint64(0)
	for pos < budget && !eng.Halted() {
		if err := ctx.Err(); err != nil {
			return nil, &cpu.CancelledError{Cause: err}
		}
		if pos+detail <= budget {
			for i, cfg := range cfgs {
				wc, err := runDetailedWindow(ctx, cfg, eng, spec)
				if err != nil {
					return nil, fmt.Errorf("core: window %d (%s): %w", len(runs[i].Windows), cfg.Mech, err)
				}
				wc.Pos = pos
				runs[i].Windows = append(runs[i].Windows, wc)
			}
		}
		step := spec.Period
		if rem := budget - pos; rem < step {
			step = rem
		}
		ran, err := eng.FastForward(step)
		pos += ran
		if err != nil {
			return nil, fmt.Errorf("core: functional tier at %d insts: %w", pos, err)
		}
		if ran < step {
			break // halted
		}
	}
	for i := range runs {
		runs[i].TotalInsts = eng.Steps()
	}
	return runs, nil
}

// SampleEstimate pairs a subject's windows with its perfect-TLB
// baseline's, position by position. Per-window penalty cycles d_i
// (subject minus perfect window cycles) and committed fills m_i feed
// the ratio estimator p = Σd/Σm, whose standard error comes from the
// delta method over the window residuals e_i = d_i − p·m_i. Both runs
// must come from the same spec, positions and functional pass.
func SampleEstimate(subj, perf SampledRun) (SampledComparison, error) {
	if subj.Spec != perf.Spec || subj.TotalInsts != perf.TotalInsts || len(subj.Windows) != len(perf.Windows) {
		return SampledComparison{}, fmt.Errorf("core: sampled runs disagree: spec %s vs %s, %d vs %d insts, %d vs %d windows",
			subj.Spec, perf.Spec, subj.TotalInsts, perf.TotalInsts, len(subj.Windows), len(perf.Windows))
	}
	out := SampledComparison{Spec: subj.Spec, TotalInsts: subj.TotalInsts}
	var ds, ms []float64
	for i, s := range subj.Windows {
		p := perf.Windows[i]
		if s.Pos != p.Pos {
			return SampledComparison{}, fmt.Errorf("core: sampled window %d at %d insts in the subject, %d in the baseline", i, s.Pos, p.Pos)
		}
		out.DetailedInsts += s.WarmInsts + s.Insts + p.WarmInsts + p.Insts
		if s.Insts > 0 {
			ds = append(ds, float64(int64(s.Cycles)-int64(p.Cycles)))
			ms = append(ms, float64(s.Misses))
			out.MeasuredInsts += s.Insts
			out.MeasuredMisses += s.Misses
		}
	}
	out.Windows = len(ds)

	var dSum, mSum float64
	for i := range ds {
		dSum += ds[i]
		mSum += ms[i]
	}
	if mSum == 0 {
		return out, nil
	}
	p := dSum / mSum
	out.PenaltyPerMiss = p
	out.MissesPerKInst = 1000 * float64(out.MeasuredMisses) / float64(out.MeasuredInsts)
	n := float64(len(ds))
	if len(ds) >= 2 {
		var ss float64
		for i := range ds {
			e := ds[i] - p*ms[i]
			ss += e * e
		}
		se := math.Sqrt(ss/(n-1)/n) / (mSum / n)
		out.CI95 = 1.96 * se
	} else {
		out.CI95 = math.Inf(1)
	}
	return out, nil
}

// WindowMachine builds the cycle-accurate machine of one sampled
// window: a fresh machine under cfg, bounded to insts retired
// application instructions, that takes over the engine's
// architectural state — registers and PC copied, mapped pages
// borrowed copy-on-write (transferImage) — with its page-table
// entries cache-warm. The engine must not run while the machine does.
func WindowMachine(cfg Config, eng *fastpath.Engine, insts uint64) (*Machine, error) {
	cfg.MaxInsts = insts
	cfg.MaxCycles = 400*insts + 500_000
	m := cpu.New(cfg)
	img, err := transferImage(eng, m.Phys())
	if err != nil {
		return nil, err
	}
	if _, err := m.AddProgramAt(img, eng.PC(), eng.Regs()); err != nil {
		return nil, err
	}
	// The functional tier stands in for the OS having run this far:
	// page-table entries start cache-warm, as in full runs.
	m.WarmPageTable(img.Space)
	return m, nil
}

// runDetailedWindow runs one window machine (WindowMachine) through
// the warm-up prefix, snapshots the counters, continues through the
// measured window, and returns the deltas. The engine is not
// advanced.
func runDetailedWindow(ctx context.Context, cfg Config, eng *fastpath.Engine, spec SampleSpec) (WindowCounts, error) {
	detail := spec.Warmup + spec.Window
	m, err := WindowMachine(cfg, eng, detail)
	if err != nil {
		return WindowCounts{}, err
	}
	m.SetCancel(ctx)
	var warm cpu.Result
	if spec.Warmup > 0 {
		if warm, err = m.RunUntil(spec.Warmup); err != nil {
			return WindowCounts{}, err
		}
	}
	full, err := m.RunUntil(detail)
	if err != nil {
		return WindowCounts{}, err
	}
	return WindowCounts{
		WarmInsts: warm.AppInsts,
		Insts:     full.AppInsts - warm.AppInsts,
		Cycles:    full.Cycles - warm.Cycles,
		Misses:    full.DTLBMisses - warm.DTLBMisses,
	}, nil
}

// transferImage rebuilds the engine's program image over a fresh
// physical memory: same code, same address-space geometry, and every
// mapped page borrowed copy-on-write from the engine's frame
// (mem.Physical.Borrow), so the window's stores never reach the
// engine. Frame numbers differ (each machine owns its allocator);
// virtual contents are identical, which is what the architectural
// contract — and ContentHash — care about. The engine must not run
// while the window machine does.
func transferImage(eng *fastpath.Engine, phys *mem.Physical) (*vm.Image, error) {
	src := eng.Image()
	srcAS := src.Space
	var as *vm.AddressSpace
	if srcAS.Org() == vm.PTTwoLevel {
		as = vm.NewAddressSpaceTwoLevel(phys, srcAS.ASN, srcAS.MaxVPN())
	} else {
		as = vm.NewAddressSpace(phys, srcAS.ASN, srcAS.MaxVPN())
	}
	img := &vm.Image{
		Name:    src.Name,
		Code:    src.Code,
		CodeVA:  src.CodeVA,
		EntryVA: src.EntryVA,
		Space:   as,
	}
	if err := img.Load(phys); err != nil {
		return nil, err
	}
	srcPhys := srcAS.Phys()
	var xerr error
	srcAS.ForEachMapped(func(vpn uint64) {
		if xerr != nil {
			return
		}
		va := vpn << vm.PageShift
		dstPA, err := as.EnsureMapped(va)
		if err != nil {
			xerr = err
			return
		}
		srcPA, _ := srcAS.Translate(va)
		phys.Borrow(dstPA, srcPhys.View(srcPA))
	})
	return img, xerr
}
