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
	// instruction, warm-up included, across subject and baseline
	// machines — the cost side of the speedup claim.
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

// SampleCompare estimates Compare's penalty-per-miss for one workload
// without simulating the whole run cycle-accurately. The functional
// tier executes every instruction; at each sampling position two
// fresh cycle-accurate machines — the subject configuration and its
// perfect-TLB baseline — take over the architectural state (registers
// and PC copied, mapped pages borrowed copy-on-write) and run the
// warm-up prefix and the measured window over the identical
// instruction stream. Per-window
// penalty cycles d_i (subject minus perfect window cycles) and
// committed fills m_i feed the ratio estimator p = Σd/Σm, whose
// standard error comes from the delta method over the window
// residuals e_i = d_i − p·m_i.
func SampleCompare(cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	return SampleCompareCtx(context.Background(), cfg, spec, w)
}

// SampleCompareCtx is SampleCompare with cancellation: every detailed
// window machine polls ctx, and the functional tier checks it between
// sampling periods, so a done ctx aborts the estimate with a
// *cpu.CancelledError carrying ctx.Err() as its cause.
func SampleCompareCtx(ctx context.Context, cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	if err := spec.validate(); err != nil {
		return SampledComparison{}, err
	}
	if cfg.Mech == MechPerfect {
		return SampledComparison{}, fmt.Errorf("core: SampleCompare subject cannot be the perfect baseline")
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		return SampledComparison{}, fmt.Errorf("core: building %s: %w", w.Name(), err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned})
	if err != nil {
		return SampledComparison{}, err
	}
	pcfg := PerfectOf(cfg)

	out := SampledComparison{Spec: spec}
	budget := cfg.MaxInsts
	detail := spec.Warmup + spec.Window
	var ds, ms []float64
	pos := uint64(0)
	for pos < budget && !eng.Halted() {
		if err := ctx.Err(); err != nil {
			return out, &cpu.CancelledError{Cause: err}
		}
		if pos+detail <= budget {
			subj, err := runDetailedWindow(ctx, cfg, eng, spec)
			if err != nil {
				return out, fmt.Errorf("core: window %d (subject): %w", len(ds), err)
			}
			perf, err := runDetailedWindow(ctx, pcfg, eng, spec)
			if err != nil {
				return out, fmt.Errorf("core: window %d (perfect): %w", len(ds), err)
			}
			out.DetailedInsts += subj.warmInsts + subj.insts + perf.warmInsts + perf.insts
			if subj.insts > 0 {
				ds = append(ds, float64(int64(subj.cycles)-int64(perf.cycles)))
				ms = append(ms, float64(subj.misses))
				out.MeasuredInsts += subj.insts
				out.MeasuredMisses += subj.misses
			}
		}
		step := spec.Period
		if rem := budget - pos; rem < step {
			step = rem
		}
		ran, err := eng.FastForward(step)
		pos += ran
		if err != nil {
			return out, fmt.Errorf("core: functional tier at %d insts: %w", pos, err)
		}
		if ran < step {
			break // halted
		}
	}
	out.TotalInsts = eng.Steps()
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

// windowStats are the counter deltas of one detailed stretch.
type windowStats struct {
	warmInsts uint64 // instructions retired during warm-up
	insts     uint64 // instructions retired in the measured window
	cycles    uint64 // cycles spent in the measured window
	misses    uint64 // committed fills in the measured window
}

// runDetailedWindow transfers the engine's architectural state into a
// fresh cycle-accurate machine, runs the warm-up prefix, snapshots
// the counters, continues through the measured window, and returns
// the deltas. The engine is not advanced.
func runDetailedWindow(ctx context.Context, cfg Config, eng *fastpath.Engine, spec SampleSpec) (windowStats, error) {
	detail := spec.Warmup + spec.Window
	wcfg := cfg
	wcfg.MaxInsts = detail
	wcfg.MaxCycles = 400*detail + 500_000
	m := cpu.New(wcfg)
	img, err := transferImage(eng, m.Phys())
	if err != nil {
		return windowStats{}, err
	}
	if _, err := m.AddProgramAt(img, eng.PC(), eng.Regs()); err != nil {
		return windowStats{}, err
	}
	// The functional tier stands in for the OS having run this far:
	// page-table entries start cache-warm, as in full runs.
	m.WarmPageTable(img.Space)
	m.SetCancel(ctx)
	var warm cpu.Result
	if spec.Warmup > 0 {
		if warm, err = m.RunUntil(spec.Warmup); err != nil {
			return windowStats{}, err
		}
	}
	full, err := m.RunUntil(detail)
	if err != nil {
		return windowStats{}, err
	}
	return windowStats{
		warmInsts: warm.AppInsts,
		insts:     full.AppInsts - warm.AppInsts,
		cycles:    full.Cycles - warm.Cycles,
		misses:    full.DTLBMisses - warm.DTLBMisses,
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
