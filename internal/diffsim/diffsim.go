// Package diffsim is the differential-fuzzing cross-check runner: it
// executes generated programs (internal/diffsim/gen) under the
// reference emulator (internal/diffsim/refemu) and under a sampled
// grid of cpu.Machine configurations — every exception mechanism,
// context counts, quick-start, page-table organizations, machine
// shapes — plus the threaded-code functional tier
// (internal/fastpath), and reports any architectural divergence:
// final register state, mapped-memory contents, or the
// committed-instruction stream.
// A divergence is a bug by definition: the paper's mechanisms are
// architecturally invisible and may differ only in timing.
//
// On a divergence, Shrink delta-debugs the failing program down to a
// minimal reproducer and Divergence.Repro renders a ready-to-run
// mtexcsim command line.
package diffsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/diffsim/refemu"
	"mtexc/internal/fastpath"
	"mtexc/internal/isa"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// Case is one machine configuration of the cross-check grid.
type Case struct {
	Name     string
	Mech     cpu.Mechanism
	Contexts int
	Quick    bool
	// Width/Window/Depth override the machine shape (0 = default).
	Width, Window int
	Depth         int
	PT            vm.PTOrg
	// TrapUnaligned and EmulatePopc must only be set on software
	// mechanisms (the core panics otherwise); TrapUnaligned selects
	// which reference-emulator architecture the case compares against.
	TrapUnaligned bool
	EmulatePopc   bool
}

// Config renders the case as a core configuration, bounded by the
// reference run's committed-instruction count so a diverging machine
// cannot spin to the global cycle cap. Exported so the fault injector
// (internal/faultinject) can derive its trial configurations from the
// same grid vocabulary.
func (c Case) Config(refSteps uint64) cpu.Config {
	cfg := cpu.DefaultConfig()
	if c.Width != 0 {
		cfg = cfg.WithWidth(c.Width, c.Window)
	}
	if c.Depth != 0 {
		cfg = cfg.WithPipeDepth(c.Depth)
	}
	cfg.Mech = c.Mech
	cfg.Contexts = c.Contexts
	cfg.QuickStart = c.Quick
	cfg.PageTable = c.PT
	cfg.TrapUnaligned = c.TrapUnaligned
	cfg.EmulatePopc = c.EmulatePopc
	cfg.CheckInvariants = true
	cfg.MaxInsts = refSteps + 10_000
	cyc := 400*refSteps + 500_000
	if cyc > 50_000_000 {
		cyc = 50_000_000
	}
	cfg.MaxCycles = cyc
	return cfg
}

// Grid builds the configuration grid for one program: the four
// mechanisms at their canonical shapes, plus two seed-sampled extras
// (more contexts, quick-start, two-level page tables, narrower
// machines). MechPerfect is only comparable when the program touches
// no unmapped pages — a perfect TLB silently drops accesses the
// software mechanisms page-fault and map — so it joins the grid only
// at FaultPct 0. The grid is deterministic in the program seed.
func Grid(p *gen.Program) []Case {
	unal := p.HasUnaligned()
	cases := []Case{}
	if p.Knobs.FaultPct == 0 {
		cases = append(cases, Case{Name: "perfect", Mech: cpu.MechPerfect, Contexts: 1})
	}
	cases = append(cases,
		Case{Name: "traditional", Mech: cpu.MechTraditional, Contexts: 1,
			TrapUnaligned: unal, EmulatePopc: true},
		Case{Name: "multithreaded", Mech: cpu.MechMultithreaded, Contexts: 2,
			TrapUnaligned: unal, EmulatePopc: true},
		Case{Name: "hardware", Mech: cpu.MechHardware, Contexts: 1},
	)
	extras := []Case{
		{Name: "multithreaded-4ctx", Mech: cpu.MechMultithreaded, Contexts: 4,
			TrapUnaligned: unal, EmulatePopc: true},
		{Name: "quickstart", Mech: cpu.MechMultithreaded, Contexts: 2, Quick: true,
			TrapUnaligned: unal, EmulatePopc: true},
		{Name: "traditional-twolevel", Mech: cpu.MechTraditional, Contexts: 1,
			PT: vm.PTTwoLevel, TrapUnaligned: unal, EmulatePopc: true},
		{Name: "hardware-twolevel", Mech: cpu.MechHardware, Contexts: 1, PT: vm.PTTwoLevel},
		{Name: "multithreaded-narrow", Mech: cpu.MechMultithreaded, Contexts: 2,
			Width: 4, Window: 64, TrapUnaligned: unal, EmulatePopc: true},
		{Name: "traditional-tiny", Mech: cpu.MechTraditional, Contexts: 1,
			Width: 2, Window: 32, TrapUnaligned: unal, EmulatePopc: true},
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x6772_6964)) // "grid"
	rng.Shuffle(len(extras), func(i, j int) { extras[i], extras[j] = extras[j], extras[i] })
	return append(cases, extras[:2]...)
}

// Divergence describes one architectural disagreement between a
// machine configuration and the reference emulator.
type Divergence struct {
	// Spec replays the program (gen.ParseSpec).
	Spec string
	Case Case
	// Cores is the shared-L2 cluster width of a topology check; 0
	// means a single-machine case. CoSpec replays the co-runner
	// program loaded on cores 1..Cores-1.
	Cores  int
	CoSpec string
	// Kind is one of: registers, memory, trace, nohalt, livelock,
	// panic, error.
	Kind   string
	Detail string
}

func (d Divergence) String() string {
	if d.Cores > 1 {
		return fmt.Sprintf("%s under %s on a %d-core cluster: %s (%s vs %s)",
			d.Kind, d.Case.Name, d.Cores, d.Detail, d.Spec, d.CoSpec)
	}
	return fmt.Sprintf("%s under %s: %s (%s)", d.Kind, d.Case.Name, d.Detail, d.Spec)
}

// Repro renders a ready-to-run command line reproducing the failing
// configuration under mtexcsim.
func (d Divergence) Repro() string {
	if d.Case.Name == "fastpath" {
		s := fmt.Sprintf("go run ./cmd/mtexcsim -bench 'fuzz:%s' -functional", d.Spec)
		if d.Case.TrapUnaligned {
			s += " -trapunaligned"
		}
		return s
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "go run ./cmd/mtexcsim -bench 'fuzz:%s'", d.Spec)
	if d.Cores > 1 {
		fmt.Fprintf(&sb, " -cores %d -corunner 'fuzz:%s'", d.Cores, d.CoSpec)
	}
	fmt.Fprintf(&sb, " -mech %s -idle %d", d.Case.Mech, d.Case.Contexts-1)
	if d.Case.Quick {
		sb.WriteString(" -quickstart")
	}
	if d.Case.PT == vm.PTTwoLevel {
		sb.WriteString(" -pt twolevel")
	}
	if d.Case.EmulatePopc {
		sb.WriteString(" -emupopc")
	}
	if d.Case.TrapUnaligned {
		sb.WriteString(" -trapunaligned")
	}
	if d.Case.Width != 0 {
		fmt.Fprintf(&sb, " -width %d -window %d", d.Case.Width, d.Case.Window)
	}
	if d.Case.Depth != 0 {
		fmt.Fprintf(&sb, " -depth %d", d.Case.Depth)
	}
	return sb.String()
}

// Options parameterize CheckProgram.
type Options struct {
	// Mech restricts the grid to one mechanism name ("" = all).
	Mech string
	// Inject seeds a deliberate core defect (self-tests of the fuzzer
	// itself; see cpu.InjectedBug).
	Inject cpu.InjectedBug
}

// RefRun caches one reference-emulator execution and its final
// address space, per architecture variant (aligned/unaligned). It is
// the oracle every machine execution — and every fault-injection
// trial — is compared against.
type RefRun struct {
	Res *refemu.Result
	// Space is the reference run's final address space. Every mapped
	// frame of it is materialized and nothing writes it, so any number
	// of oracles may compare against it at once.
	Space *vm.AddressSpace
}

// NewRefRun executes the program once under the reference emulator.
// A non-nil error means the program itself is invalid (does not
// assemble or does not halt) — a generator problem, not a core bug.
func NewRefRun(p *gen.Program, unaligned bool) (*RefRun, error) {
	img, err := p.BuildImage(mem.NewPhysical(), 1, vm.PTLinear)
	if err != nil {
		return nil, err
	}
	res, err := refemu.Run(img, refemu.Options{Unaligned: unaligned})
	if err != nil {
		return nil, err
	}
	img.Space.Materialize()
	return &RefRun{Res: res, Space: img.Space}, nil
}

// memoryDiff compares a run's mapped memory with the reference's
// (vm.AddressSpace.EqualContent) and describes a difference by the
// two spaces' content hashes, which only a divergence computes.
func memoryDiff(space *vm.AddressSpace, ref *RefRun) string {
	if space.EqualContent(ref.Space) {
		return ""
	}
	return fmt.Sprintf("mapped-memory hash %#x != reference %#x", space.ContentHash(), ref.Space.ContentHash())
}

// CheckProgram runs the program under the full grid and collects
// every divergence. A non-nil error means the program itself is
// invalid (does not assemble or does not halt under the reference
// emulator) — that is a generator problem, not a core bug.
func CheckProgram(p *gen.Program, opt Options) ([]Divergence, error) {
	refs := map[bool]*RefRun{}
	var divs []Divergence
	for _, c := range Grid(p) {
		if opt.Mech != "" && c.Mech.String() != opt.Mech {
			continue
		}
		ref := refs[c.TrapUnaligned]
		if ref == nil {
			r, err := NewRefRun(p, c.TrapUnaligned)
			if err != nil {
				return nil, fmt.Errorf("diffsim: reference run of %s: %w", p.Spec(), err)
			}
			refs[c.TrapUnaligned] = r
			ref = r
			// First use of this architecture variant: cross-check the
			// functional fast-forward tier against the fresh reference
			// run before any cycle-accurate case depends on it.
			if d := runFastpath(p, c.TrapUnaligned, r); d != nil {
				d.Spec = p.Spec()
				divs = append(divs, *d)
			}
		}
		rr := RunCaseConfigured(p, c, c.Config(ref.Res.Steps), ref, func(m *cpu.Machine) {
			m.InjectBug = opt.Inject
		})
		if d := rr.Div; d != nil {
			d.Spec = p.Spec()
			divs = append(divs, *d)
		}
	}
	return divs, nil
}

// runFastpath cross-checks the threaded-code functional tier
// (internal/fastpath) against the cached reference run: identical
// committed-instruction stream, step count, final registers and
// mapped memory. The functional tier is the architectural
// state source for sampled simulation (core.SampleCompare), so a
// divergence here would silently corrupt every sampled estimate —
// it is held to the same oracle as the cycle-accurate machines.
func runFastpath(p *gen.Program, unaligned bool, ref *RefRun) (div *Divergence) {
	c := Case{Name: "fastpath", TrapUnaligned: unaligned}
	defer recoverDiv(&div, c)
	img, err := p.BuildImage(mem.NewPhysical(), 1, vm.PTLinear)
	if err != nil {
		return &Divergence{Case: c, Kind: "error", Detail: err.Error()}
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: unaligned, RecordTrace: true})
	if err != nil {
		return &Divergence{Case: c, Kind: "error", Detail: err.Error()}
	}
	if _, err := eng.FastForward(ref.Res.Steps + 10_000); err != nil {
		return &Divergence{Case: c, Kind: "error", Detail: err.Error()}
	}
	if !eng.Halted() {
		return &Divergence{Case: c, Kind: "nohalt",
			Detail: fmt.Sprintf("functional tier not halted after %d steps (reference took %d)",
				eng.Steps(), ref.Res.Steps)}
	}
	tr, want := eng.Trace(), ref.Res.Trace
	for i := 0; i < min(len(tr), len(want)); i++ {
		if tr[i].PC != want[i].PC || tr[i].Op != want[i].Op {
			return &Divergence{Case: c, Kind: "trace",
				Detail: fmt.Sprintf("committed inst %d: functional tier pc=%#x op=%v, reference expects pc=%#x op=%v",
					i, tr[i].PC, tr[i].Op, want[i].PC, want[i].Op)}
		}
	}
	if eng.Steps() != ref.Res.Steps {
		return &Divergence{Case: c, Kind: "trace",
			Detail: fmt.Sprintf("functional tier committed %d instructions, reference %d",
				eng.Steps(), ref.Res.Steps)}
	}
	if regs := eng.Regs(); regs != ref.Res.Regs {
		return &Divergence{Case: c, Kind: "registers", Detail: regsDiff(regs, ref.Res.Regs)}
	}
	if d := memoryDiff(img.Space, ref); d != "" {
		return &Divergence{Case: c, Kind: "memory", Detail: d}
	}
	return nil
}

// recoverDiv reports a panic inside the core (invariant checker,
// splice machinery) or the functional tier as the run's divergence.
func recoverDiv(div **Divergence, c Case) {
	if r := recover(); r != nil {
		*div = &Divergence{Case: c, Kind: "panic", Detail: fmt.Sprint(r)}
	}
}

// skippable reports whether a reference-trace instruction is allowed
// to be absent from the machine's committed stream: under software
// mechanisms, emulated POPCs and trapped unaligned loads are squashed
// and performed by the handler (which resumes at pc+4), so they never
// retire as application instructions. Their architectural effect is
// still checked — through the final register and memory signatures.
func skippable(op isa.Op, cfg cpu.Config) bool {
	return cfg.EmulatePopc && op == isa.OpPopc ||
		cfg.TrapUnaligned && (op == isa.OpLdq || op == isa.OpLdl)
}

// RunResult is the outcome of one oracle-checked machine execution:
// the divergence (nil if the run matched the reference) and the
// core's partial result, which fault-injection trials read for cycle
// counts and exception-activity counters even when the run diverged.
// A Fork recycles its trial machine, so the Stats and Obs of a
// RunFault result are valid only until the fork's next run.
type RunResult struct {
	Div *Divergence
	Res cpu.Result
}

// oracle streams one hardware context's committed instructions
// against its reference run, then checks the context's final
// registers and memory. It is a plain value: a copy forks the
// comparison along with a cloned machine.
type oracle struct {
	ref      *RefRun
	cfg      cpu.Config
	tid      int
	idx      int    // reference instructions matched or skipped so far
	mismatch string // the first committed-stream disagreement
}

// retire is the machine's RetireHook.
func (o *oracle) retire(ri cpu.RetiredInst) {
	if ri.Tid != o.tid || ri.PAL || o.mismatch != "" {
		return
	}
	trace := o.ref.Res.Trace
	for o.idx < len(trace) {
		e := trace[o.idx]
		if e.PC == ri.PC && e.Op == ri.Op {
			o.idx++
			return
		}
		if skippable(e.Op, o.cfg) {
			o.idx++
			continue
		}
		o.mismatch = fmt.Sprintf("committed inst %d: machine retired pc=%#x op=%v, reference expects pc=%#x op=%v",
			o.idx, ri.PC, ri.Op, e.PC, e.Op)
		return
	}
	o.mismatch = fmt.Sprintf("machine retired pc=%#x op=%v past the end of the %d-entry reference trace",
		ri.PC, ri.Op, len(trace))
}

// verify checks the context's state on m after its run, returning
// the divergence kind and detail ("" if it matches the reference).
// Memory is read through the machine's own address space, which for
// a clone is not the image's.
func (o *oracle) verify(m *cpu.Machine) (kind, detail string) {
	trace := o.ref.Res.Trace
	if !m.ThreadHalted(o.tid) {
		return "nohalt", fmt.Sprintf("application thread not halted after %d committed of %d reference instructions",
			o.idx, len(trace))
	}
	if o.mismatch != "" {
		return "trace", o.mismatch
	}
	for ; o.idx < len(trace); o.idx++ {
		if !skippable(trace[o.idx].Op, o.cfg) {
			return "trace", fmt.Sprintf("machine halted with reference inst %d (pc=%#x op=%v) never committed",
				o.idx, trace[o.idx].PC, trace[o.idx].Op)
		}
	}
	if regs := m.ArchRegs(o.tid); regs != o.ref.Res.Regs {
		return "registers", regsDiff(regs, o.ref.Res.Regs)
	}
	if d := memoryDiff(m.Space(o.tid), o.ref); d != "" {
		return "memory", d
	}
	return "", ""
}

// run finishes m under o and compares the outcome with the reference.
func (o *oracle) run(m *cpu.Machine, c Case) (out RunResult) {
	m.RetireHook = o.retire
	var err error
	out.Res, err = m.Run()
	if err != nil {
		out.Div = &Divergence{Case: c, Kind: errKind(err), Detail: err.Error()}
	} else if kind, detail := o.verify(m); kind != "" {
		out.Div = &Divergence{Case: c, Kind: kind, Detail: detail}
	}
	return out
}

// errKind classifies a run error: the no-progress watchdog is a
// livelock, anything else an error.
func errKind(err error) string {
	var ll *cpu.LivelockError
	if errors.As(err, &ll) {
		return "livelock"
	}
	return "error"
}

// RunCaseConfigured executes the program under one configuration and
// compares the committed-instruction stream (streamed through
// RetireHook), the final architectural registers and the mapped
// memory against the reference run. A panic inside
// the core is itself a divergence. pre, if non-nil, runs after the
// program is loaded and before the machine starts — the seam where
// the fuzzer arms InjectBug and the fault injector arms its
// FaultPlan.
func RunCaseConfigured(p *gen.Program, c Case, cfg cpu.Config, ref *RefRun, pre func(*cpu.Machine)) (out RunResult) {
	defer recoverDiv(&out.Div, c)
	f := NewFork(p, c, cfg, ref)
	if err := f.load(); err != nil {
		return RunResult{Div: &Divergence{Case: c, Kind: "error", Detail: err.Error()}}
	}
	if pre != nil {
		pre(f.m)
	}
	return f.o.run(f.m, c)
}

// Fork runs RunCaseConfigured's check of fault trials on clones of
// one unarmed machine, so trials that differ only from their firing
// cycle on simulate their common prefix once, and each trial after
// the first recycles the machine of the one before.
type Fork struct {
	p   *gen.Program
	c   Case
	cfg cpu.Config
	ref *RefRun
	m   *cpu.Machine // the unarmed machine; nil until loaded
	o   oracle       // m's comparison so far
	// m has had no target of class since cycle since (HasFaultTarget
	// was false at every cycle of [since, m.Now())).
	class cpu.FaultClass
	since uint64
	trial *cpu.Machine // the last trial's machine, recycled by the next
}

// NewFork prepares forked runs of p under cfg, checked against ref.
func NewFork(p *gen.Program, c Case, cfg cpu.Config, ref *RefRun) *Fork {
	return &Fork{p: p, c: c, cfg: cfg, ref: ref}
}

// load builds the unarmed machine with p on its first context, under
// the oracle that checks that context.
func (f *Fork) load() error {
	f.m = cpu.New(f.cfg)
	img, err := f.p.BuildImage(f.m.Phys(), 1, f.cfg.PageTable)
	if err != nil {
		return err
	}
	tid, err := f.m.AddProgram(img)
	f.o = oracle{ref: f.ref, cfg: f.cfg, tid: tid}
	f.m.RetireHook = f.o.retire
	return err
}

// RunFault is RunCaseConfigured with plan armed before cycle 0, plus
// the plan's fault record. It steps the unarmed machine to the cycle
// the plan fires at, the first from plan.At on where its class has a
// target (cpu.Machine.HasFaultTarget), and arms the plan on a clone
// taken there, which fires at once and finishes under a copy of the
// oracle. The clone is made in the previous trial's machine
// (cpu.Machine.CloneInto). A plan whose class finds no target before
// the unarmed machine is Done never fires: its run is the unarmed
// one, checked without a clone.
//
// A firing cycle behind the unarmed machine reloads it, unless the
// machine got there looking for a target of the same class from no
// later than plan.At. So plans of one class taken in increasing At
// simulate each prefix cycle once.
func (f *Fork) RunFault(plan cpu.FaultPlan) (out RunResult, rec cpu.FaultRecord) {
	defer recoverDiv(&out.Div, f.c)
	if f.m == nil || f.m.Now() > plan.At && (plan.Class != f.class || f.since > plan.At) {
		if err := f.load(); err != nil {
			f.m = nil
			return RunResult{Div: &Divergence{Case: f.c, Kind: "error", Detail: err.Error()}}, rec
		}
	}
	// A panic or error while stepping leaves no half-stepped machine
	// behind: the next call reloads.
	m := f.m
	f.m = nil
	if m.Now() <= plan.At {
		for m.Now() < plan.At && !m.Done() {
			if err := m.StepCycle(); err != nil {
				return f.failed(m, err), rec
			}
		}
		f.class, f.since = plan.Class, m.Now()
	}
	for !m.Done() && !m.HasFaultTarget(plan.Class) {
		if err := m.StepCycle(); err != nil {
			return f.failed(m, err), rec
		}
	}
	f.m = m
	o := f.o
	if m.Done() {
		return o.run(m, f.c), rec
	}
	trial := m.CloneInto(f.trial)
	f.trial = trial
	trial.SetFaultPlan(plan)
	// Read the record after the run, even one that panics.
	defer func() { rec = trial.FaultRecord() }()
	return o.run(trial, f.c), rec
}

// failed is the armed run's result when a step of the unarmed machine
// m fails with err before the plan fires: the armed run failed the
// same way.
func (f *Fork) failed(m *cpu.Machine, err error) RunResult {
	return RunResult{Div: &Divergence{Case: f.c, Kind: errKind(err), Detail: err.Error()}, Res: m.Finish()}
}

// regsDiff names the first few differing registers.
func regsDiff(got, want isa.RegFile) string {
	var parts []string
	for r := 0; r < len(got.Int) && len(parts) < 4; r++ {
		if got.Int[r] != want.Int[r] {
			parts = append(parts, fmt.Sprintf("r%d=%#x want %#x", r, got.Int[r], want.Int[r]))
		}
	}
	for r := 0; r < len(got.FP) && len(parts) < 4; r++ {
		if got.FP[r] != want.FP[r] {
			parts = append(parts, fmt.Sprintf("f%d=%#x want %#x", r, got.FP[r], want.FP[r]))
		}
	}
	return strings.Join(parts, ", ")
}
