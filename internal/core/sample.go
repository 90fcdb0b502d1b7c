package core

import (
	"context"
	"fmt"
	"math"
	"sync"

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

// Checkpoint is the architectural state of a functional pass at one
// sampling position. FunctionalPass's checkpoints are frozen: later
// instructions of the pass do not change them, and any number of
// window machines may start from one concurrently.
type Checkpoint struct {
	// Pos is the number of instructions the pass had committed.
	Pos  uint64
	PC   uint64
	Regs isa.RegFile
	// Image is the program image at Pos. FunctionalPass freezes it
	// (fastpath.Engine.Freeze); SampleCompare's pass hands out the
	// engine's own image, good only until its windows are done
	// (walkPass). Its pages are shared copy-on-write and must not be
	// written.
	Image *vm.Image

	// windows holds the images window machines take over from Image,
	// by start frame (windowImage); mu single-flights their builds.
	mu      sync.Mutex
	windows map[uint64]*vm.Image
}

// windowImage returns Image rebuilt for window machines whose
// allocator stands at frame start (transferImage), to lend to each of
// them (vm.Image.LendTo). The first window to ask builds it, and a
// window asking meanwhile waits for that build: a sampled row's runs
// start from one checkpoint at once, and Figure 5's configurations
// all at one frame, so a checkpoint builds one.
func (cp *Checkpoint) windowImage(start uint64) (*vm.Image, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if img := cp.windows[start]; img != nil {
		return img, nil
	}
	img, err := transferImage(cp.Image, mem.NewPhysicalAt(start))
	if err != nil {
		return nil, err
	}
	// Window machines on several goroutines read it at once.
	img.Space.Materialize()
	if cp.windows == nil {
		cp.windows = make(map[uint64]*vm.Image)
	}
	cp.windows[start] = img
	return img, nil
}

// Pass is one functional pass of a workload under a sampling spec:
// the architectural stream every configuration of a sampled
// comparison executes, frozen at each position where a window fits.
type Pass struct {
	Spec SampleSpec
	// MaxInsts and TrapUnaligned are the budget and the architecture
	// the pass ran under; they fix its stream.
	MaxInsts      uint64
	TrapUnaligned bool
	// TotalInsts is the instruction count the functional tier
	// committed.
	TotalInsts  uint64
	Checkpoints []*Checkpoint
}

// SampleCompare estimates Compare's penalty-per-miss for one workload
// without simulating the whole run cycle-accurately: the subject and
// its perfect-TLB baseline (PerfectOf) run their windows over one
// functional pass, as SampleWindows runs them over FunctionalPass's
// checkpoints, and SampleEstimate pairs them.
func SampleCompare(cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	return SampleCompareCtx(context.Background(), cfg, spec, w)
}

// SampleCompareCtx is SampleCompare with cancellation (see
// FunctionalPass and SampleWindows). It runs both configurations'
// windows at each position as the pass reaches it, from the engine's
// own image, and keeps nothing, so its memory does not grow with the
// budget.
func SampleCompareCtx(ctx context.Context, cfg Config, spec SampleSpec, w Workload) (SampledComparison, error) {
	if cfg.Mech == MechPerfect {
		return SampledComparison{}, fmt.Errorf("core: SampleCompare subject cannot be the perfect baseline")
	}
	wr := newWindowRuns(spec, []Config{cfg, PerfectOf(cfg, 1)})
	total, err := walkPass(ctx, spec, w, cfg, false, func(cp *Checkpoint) error {
		return runWindows(ctx, cp, spec, wr)
	})
	if err != nil {
		return SampledComparison{}, err
	}
	runs := sampledRuns(wr, spec, total)
	return SampleEstimate(runs[0], runs[1])
}

// FunctionalPass executes w once on the functional tier, over
// cfg.MaxInsts instructions under cfg.TrapUnaligned, and keeps a
// checkpoint at every sampling position of spec where a Warmup+Window
// stretch fits in the budget. Only those two fields of cfg matter:
// the pass serves every configuration that agrees on them. Each
// checkpoint keeps its own copy of every page the pass stores to
// before the next one, and the image its windows borrow once they
// have run (windowImage), so the pass's memory grows with the number
// of positions; SampleCompare, which keeps no checkpoint, does not
// grow.
//
// The pass checks ctx between sampling periods, so a done ctx aborts
// it with a *cpu.CancelledError carrying ctx.Err() as its cause.
func FunctionalPass(ctx context.Context, spec SampleSpec, w Workload, cfg Config) (*Pass, error) {
	p := &Pass{Spec: spec, MaxInsts: cfg.MaxInsts, TrapUnaligned: cfg.TrapUnaligned}
	total, err := walkPass(ctx, spec, w, cfg, true, func(cp *Checkpoint) error {
		p.Checkpoints = append(p.Checkpoints, cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.TotalInsts = total
	return p, nil
}

// walkPass runs FunctionalPass's pass and hands each checkpoint to
// visit, in position order, before the pass runs on; an error from
// visit ends the pass. With freeze the checkpoint's image is frozen
// and visit may keep it. Without, it is the engine's own image, which
// holds only until visit returns, and the engine need not copy the
// pages it stores to afterwards. walkPass returns the instruction
// count the functional tier committed.
func walkPass(ctx context.Context, spec SampleSpec, w Workload, cfg Config, freeze bool, visit func(*Checkpoint) error) (uint64, error) {
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
			cp := &Checkpoint{Pos: pos, PC: eng.PC(), Regs: eng.Regs(), Image: img}
			if freeze {
				cp.Image = eng.Freeze()
			}
			if err := visit(cp); err != nil {
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

// SampleWindows runs the detailed windows of one or more
// configurations over a functional pass. At each checkpoint a
// cycle-accurate machine per configuration takes over the
// architectural state (WindowMachine) and runs the warm-up prefix and
// the measured window over the identical instruction stream. Each
// configuration's window machines are clones of one pristine machine,
// each made in the machine of the window before, and every window
// machine at a checkpoint borrows one image the checkpoint built. The
// configurations must agree with the pass on MaxInsts and
// TrapUnaligned. A window's counts depend only on its configuration
// and checkpoint, so a pass may serve SampleWindows calls on several
// goroutines at once.
//
// Every window machine polls ctx, so a done ctx aborts the windows
// with a *cpu.CancelledError carrying ctx.Err() as its cause.
func SampleWindows(ctx context.Context, p *Pass, cfgs ...Config) ([]SampledRun, error) {
	for _, c := range cfgs {
		if c.MaxInsts != p.MaxInsts || c.TrapUnaligned != p.TrapUnaligned {
			return nil, fmt.Errorf("core: sampled configuration disagrees with the functional pass on MaxInsts (%d vs %d) or TrapUnaligned (%v vs %v)",
				c.MaxInsts, p.MaxInsts, c.TrapUnaligned, p.TrapUnaligned)
		}
	}
	wr := newWindowRuns(p.Spec, cfgs)
	for _, cp := range p.Checkpoints {
		if err := runWindows(ctx, cp, p.Spec, wr); err != nil {
			return nil, err
		}
	}
	return sampledRuns(wr, p.Spec, p.TotalInsts), nil
}

// windowRun is one configuration's side of a sampled run while its
// windows run: the pristine machine each of its window machines
// clones, the machine its last window ran on, in which the next one
// is made (WindowMachine), and the counts of its windows so far.
type windowRun struct {
	mech            Mechanism
	pristine, spare *Machine
	windows         []WindowCounts
}

// newWindowRuns starts a sampled run under spec for each
// configuration, with a pristine machine bounded to its windows
// (WindowConfig).
func newWindowRuns(spec SampleSpec, cfgs []Config) []windowRun {
	runs := make([]windowRun, len(cfgs))
	for i, cfg := range cfgs {
		runs[i] = windowRun{mech: cfg.Mech, pristine: cpu.New(WindowConfig(cfg, spec.Warmup+spec.Window))}
	}
	return runs
}

// runWindows runs every configuration's window at cp on its next
// window machine (runDetailedWindow) and appends its counts to the
// configuration's run.
func runWindows(ctx context.Context, cp *Checkpoint, spec SampleSpec, runs []windowRun) error {
	for i := range runs {
		r := &runs[i]
		m, err := WindowMachine(r.pristine, cp, r.spare)
		var wc WindowCounts
		if err == nil {
			r.spare = m
			wc, err = runDetailedWindow(ctx, m, cp, spec)
		}
		if err != nil {
			return fmt.Errorf("core: window %d (%s): %w", len(r.windows), r.mech, err)
		}
		r.windows = append(r.windows, wc)
	}
	return nil
}

// sampledRuns returns the runs' windows as SampledRuns over a pass
// under spec that committed total instructions.
func sampledRuns(runs []windowRun, spec SampleSpec, total uint64) []SampledRun {
	out := make([]SampledRun, len(runs))
	for i, r := range runs {
		out[i] = SampledRun{Spec: spec, TotalInsts: total, Windows: r.windows}
	}
	return out
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

// transferImage rebuilds a frozen program image over phys, a memory
// of its own that starts at a window machine's next free frame
// (windowImage): same code, same address-space geometry, and every
// mapped page borrowed copy-on-write from the frozen frame
// (mem.Physical.Borrow), so no store of a window machine the image is
// lent to reaches the checkpoint. Frame numbers differ from the
// frozen image's (they start at phys's allocator) but follow from the
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
