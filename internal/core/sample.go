package core

import (
	"context"
	"fmt"
	"math"

	"mtexc/internal/cpu"
	"mtexc/internal/fastpath"
	"mtexc/internal/isa"
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

// SampledRun is one configuration's detailed windows over a walk, in
// position order: half of a sampled comparison,
// before SampleEstimate pairs it with the other half.
type SampledRun struct {
	Spec SampleSpec
	// TotalInsts is the instruction count the functional tier
	// committed.
	TotalInsts uint64
	Windows    []WindowCounts
}

// Checkpoint is the architectural state of a sampled walk at one
// sampling position (Walk). It holds only while the walk stands
// there: the walk runs on once its visit returns, and its image with
// it.
type Checkpoint struct {
	// Pos is the number of instructions the walk had committed.
	Pos  uint64
	PC   uint64
	Regs isa.RegFile
	// Image is the functional tier's own image at Pos. The images
	// window machines take over share its pages copy-on-write, so it
	// must not be written while they run.
	Image *vm.Image

	// windows holds the images window machines take over from Image,
	// by start frame (windowImage).
	windows map[uint64]*vm.Image
}

// windowImage returns Image rebuilt for window machines whose
// allocator stands at frame start (transferImage), to lend to each of
// them (vm.Image.LendTo). The first window to ask builds it; Figure
// 5's configurations all start at one frame, so a position builds
// one.
func (cp *Checkpoint) windowImage(start uint64) (*vm.Image, error) {
	if img := cp.windows[start]; img != nil {
		return img, nil
	}
	img, err := transferImage(cp.Image, mem.NewPhysicalAt(start))
	if err != nil {
		return nil, err
	}
	// Sorting its pages once here (Materialize) hands the order to
	// every space lent from it, so WarmPageTable sorts nothing.
	img.Space.Materialize()
	if cp.windows == nil {
		cp.windows = make(map[uint64]*vm.Image)
	}
	cp.windows[start] = img
	return img, nil
}

// SampleCompare estimates Compare's penalty-per-miss for one workload
// without simulating the whole run cycle-accurately: the subject and
// its perfect-TLB baseline (PerfectOf) run their windows over one
// walk (SampleWindows), and SampleEstimate pairs them.
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
// configurations over one walk of w (Walk): at each checkpoint a
// cycle-accurate machine per configuration takes over the
// architectural state (WindowMachine) and runs the warm-up prefix and
// the measured window over the identical instruction stream, before
// the walk moves on. Each configuration's window machines are clones
// of a pristine machine of its own, and each window machine is made
// in the walk's previous one, whatever its configuration, so the walk
// keeps one position, one machine per configuration and one spare at
// any budget. The configurations must agree on MaxInsts and
// TrapUnaligned, which fix the functional stream.
//
// The walk checks ctx between sampling periods and every window
// machine polls it, so a done ctx aborts the run with a
// *cpu.CancelledError carrying ctx.Err() as its cause.
func SampleWindows(ctx context.Context, spec SampleSpec, w Workload, cfgs ...Config) ([]SampledRun, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: SampleWindows needs a configuration")
	}
	for _, c := range cfgs[1:] {
		if c.MaxInsts != cfgs[0].MaxInsts || c.TrapUnaligned != cfgs[0].TrapUnaligned {
			return nil, fmt.Errorf("core: sampled configurations disagree on MaxInsts (%d vs %d) or TrapUnaligned (%v vs %v)",
				cfgs[0].MaxInsts, c.MaxInsts, cfgs[0].TrapUnaligned, c.TrapUnaligned)
		}
	}
	wr := newWindowRuns(spec, cfgs)
	total, err := Walk(ctx, spec, w, cfgs[0], func(cp *Checkpoint) error {
		return wr.at(ctx, cp)
	})
	if err != nil {
		return nil, err
	}
	for i := range wr.runs {
		wr.runs[i].TotalInsts = total
	}
	return wr.runs, nil
}

// Walk executes w once on the functional tier, over cfg.MaxInsts
// instructions under cfg.TrapUnaligned, and hands visit the
// checkpoint at every sampling position of spec where a
// Warmup+Window stretch fits in the budget, in position order. Only
// those two fields of cfg matter. The checkpoint's image is the
// engine's own, which holds only until visit returns, so the walk
// keeps nothing from one position to the next; an error from visit
// ends it. Walk returns the instruction count the functional tier
// committed.
//
// Walk checks ctx between sampling periods, so a done ctx aborts it
// with a *cpu.CancelledError carrying ctx.Err() as its cause.
func Walk(ctx context.Context, spec SampleSpec, w Workload, cfg Config, visit func(*Checkpoint) error) (uint64, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		return 0, fmt.Errorf("core: building %s: %w", w.Name(), err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned})
	if err != nil {
		return 0, err
	}
	budget := cfg.MaxInsts
	detail := spec.Warmup + spec.Window
	pos := uint64(0)
	for pos < budget && !eng.Halted() {
		if err := ctx.Err(); err != nil {
			return 0, &cpu.CancelledError{Cause: err}
		}
		if pos+detail <= budget {
			if err := visit(&Checkpoint{Pos: pos, PC: eng.PC(), Regs: eng.Regs(), Image: img}); err != nil {
				return 0, err
			}
		}
		step := spec.Period
		if rem := budget - pos; rem < step {
			step = rem
		}
		ran, err := eng.FastForward(step)
		pos += ran
		if err != nil {
			return 0, fmt.Errorf("core: functional tier at %d insts: %w", pos, err)
		}
		if ran < step {
			break // halted
		}
	}
	return eng.Steps(), nil
}

// windowRuns holds the configurations' sampled runs while a walk runs
// their windows: each one's pristine machine, which its window
// machines clone, and its windows so far, plus the machine the walk's
// last window ran on, in which the next window machine is made
// (WindowMachine).
type windowRuns struct {
	spec     SampleSpec
	mechs    []Mechanism
	pristine []*Machine
	spare    *Machine
	runs     []SampledRun
}

// newWindowRuns starts a sampled run under spec for each
// configuration, with a pristine machine bounded to its windows
// (WindowConfig).
func newWindowRuns(spec SampleSpec, cfgs []Config) *windowRuns {
	wr := &windowRuns{spec: spec, runs: make([]SampledRun, len(cfgs))}
	for i, cfg := range cfgs {
		wr.mechs = append(wr.mechs, cfg.Mech)
		wr.pristine = append(wr.pristine, cpu.New(WindowConfig(cfg, spec.Warmup+spec.Window)))
		wr.runs[i].Spec = spec
	}
	return wr
}

// at runs every configuration's window at cp, each on a window
// machine made in the one before (runDetailedWindow), and appends its
// counts to the configuration's run.
func (wr *windowRuns) at(ctx context.Context, cp *Checkpoint) error {
	for i := range wr.runs {
		r := &wr.runs[i]
		m, err := WindowMachine(wr.pristine[i], cp, wr.spare)
		var wc WindowCounts
		if err == nil {
			wr.spare = m
			wc, err = runDetailedWindow(ctx, m, cp, wr.spec)
		}
		if err != nil {
			return fmt.Errorf("core: window %d (%s): %w", len(r.Windows), wr.mechs[i], err)
		}
		r.Windows = append(r.Windows, wc)
	}
	return nil
}

// SampleEstimate pairs a subject's windows with its perfect-TLB
// baseline's, position by position. Per-window penalty cycles d_i
// (subject minus perfect window cycles) and committed fills m_i feed
// the ratio estimator p = Σd/Σm, whose standard error comes from the
// delta method over the window residuals e_i = d_i − p·m_i. Both runs
// must come from the same spec, positions and functional stream.
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

// WindowConfig is cfg bounded for the machine of a window of insts
// retired application instructions: that budget, and a cycle cap far
// above what the window takes.
func WindowConfig(cfg Config, insts uint64) Config {
	cfg.MaxInsts = insts
	cfg.MaxCycles = 400*insts + 500_000
	return cfg
}

// WindowMachine builds the cycle-accurate machine of one sampled
// window. pristine is a machine New built under the window's
// WindowConfig that has run nothing, and the window machine is its
// clone (cpu.Machine.CloneInto), made in spare when spare is not nil:
// a window machine no one uses any more, such as the one the window
// before ran on, whether it finished, failed or was cancelled. The
// clone takes over the checkpoint's architectural state — registers
// and PC copied, and the image the checkpoint rebuilt for its start
// frame lent copy-on-write (windowImage, vm.Image.LendTo) — with its
// page-table entries cache-warm. It is the machine New and a build of
// that image in place would give.
func WindowMachine(pristine *Machine, cp *Checkpoint, spare *Machine) (*Machine, error) {
	m := pristine.CloneInto(spare)
	src, err := cp.windowImage(m.Phys().NextFree())
	if err != nil {
		return nil, err
	}
	img, err := src.LendTo(m.Phys())
	if err != nil {
		return nil, err
	}
	if _, err := m.AddProgramAt(img, cp.PC, cp.Regs); err != nil {
		return nil, err
	}
	// The functional tier stands in for the OS having run this far:
	// page-table entries start cache-warm, as in full runs.
	m.WarmPageTable(img.Space)
	return m, nil
}

// runDetailedWindow runs m, the window machine of cp (WindowMachine),
// through the warm-up prefix, snapshots the counters, continues
// through the measured window, and returns the deltas. A window
// counts only retired application instructions, and an instruction a
// handler completes (EmulatePopc, TrapUnaligned) never retires, so a
// window can cover more of the stream than Warmup+Window; one that
// covers more than the period, into the next window's stretch, fails.
func runDetailedWindow(ctx context.Context, m *Machine, cp *Checkpoint, spec SampleSpec) (WindowCounts, error) {
	detail := spec.Warmup + spec.Window
	m.SetCancel(ctx)
	var (
		warm cpu.Result
		err  error
	)
	if spec.Warmup > 0 {
		if warm, err = m.RunUntil(spec.Warmup); err != nil {
			return WindowCounts{}, err
		}
	}
	full, err := m.RunUntil(detail)
	if err != nil {
		return WindowCounts{}, err
	}
	completed := full.Stats.Get("emu.committed") + full.Stats.Get("unaligned.committed")
	if full.AppInsts+completed > spec.Period {
		return WindowCounts{}, fmt.Errorf("core: window at %d insts covered %d instructions (%d retired, %d completed by handlers), more than its %d-instruction period",
			cp.Pos, full.AppInsts+completed, full.AppInsts, completed, spec.Period)
	}
	return WindowCounts{
		Pos:       cp.Pos,
		WarmInsts: warm.AppInsts,
		Insts:     full.AppInsts - warm.AppInsts,
		Cycles:    full.Cycles - warm.Cycles,
		Misses:    full.DTLBMisses - warm.DTLBMisses,
	}, nil
}

// transferImage rebuilds a checkpoint's program image over phys, a
// memory of its own that starts at a window machine's next free frame
// (windowImage): same code, same address-space geometry, and every
// mapped page borrowed copy-on-write from the checkpoint's frame
// (mem.Physical.Borrow), so no store of a window machine the image is
// lent to reaches the checkpoint. Frame numbers differ from the
// checkpoint image's (they start at phys's allocator) but follow from the
// mapped VPNs alone, taken in ascending order; virtual contents are
// identical, which is what the architectural contract — and
// ContentHash — care about.
func transferImage(src *vm.Image, phys *mem.Physical) (*vm.Image, error) {
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
