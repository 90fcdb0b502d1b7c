// Package faultinject runs deterministic transient-fault injection
// trials against the cycle-accurate core and classifies each outcome
// against the differential-fuzzing oracle (internal/diffsim).
//
// One trial arms a cpu.FaultPlan — a single seeded bit flip in one
// state class (architectural registers, live handler state, TLB
// entries, instruction-window payloads) — on an otherwise ordinary
// oracle-checked run, then classifies the result:
//
//   - masked: the run matched the reference architecturally AND its
//     exception-activity signature equals the unfaulted baseline —
//     the flip was overwritten, unread, or squashed.
//   - detected: the run matched the reference but took a different
//     exception path (extra TLB misses, traps, handler work, page
//     faults) — the machine noticed and recovered.
//   - sdc: silent data corruption — the run completed but disagrees
//     with the reference (registers, memory, or committed stream).
//   - hang: the run tripped the no-progress watchdog, spun past the
//     cycle cap, or never halted.
//   - crash: the core panicked or returned a hard error.
//
// Everything is a pure function of (program spec, mechanism case,
// plan): equal inputs reproduce equal outcomes, which is what makes
// -replay and the campaign journal sound.
package faultinject

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/diffsim/gen"
)

// Outcome classifies one fault-injection trial.
type Outcome uint8

const (
	Masked Outcome = iota
	Detected
	SDC
	Hang
	Crash
)

var outcomeNames = [...]string{
	Masked:   "masked",
	Detected: "detected",
	SDC:      "sdc",
	Hang:     "hang",
	Crash:    "crash",
}

// Outcomes lists every outcome in canonical (histogram) order.
var Outcomes = []Outcome{Masked, Detected, SDC, Hang, Crash}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// ParseOutcome resolves an outcome name (as printed by String).
func ParseOutcome(s string) (Outcome, error) {
	for i, n := range outcomeNames {
		if s == n {
			return Outcome(i), nil
		}
	}
	return Masked, fmt.Errorf("faultinject: unknown outcome %q (want masked|detected|sdc|hang|crash)", s)
}

// sigCounters is the exception-activity signature separating masked
// from detected: a trial whose architectural result matches the
// reference but whose machine took extra (or fewer) exception-path
// events did not mask the flip — it detected and recovered from it.
// Pure timing counters (cycles, fetch, issue) are deliberately
// excluded; a flip that only perturbs timing is masked by the paper's
// own definition of architectural invisibility.
var sigCounters = []string{
	"dtlb.misses.detected",
	"trap.traps",
	"handler.spawns",
	"handler.exhausted",
	"handler.reversions",
	"walker.walks",
	"walker.pagefaults",
	"os.pagefaults",
	"emu.exceptions",
	"unaligned.exceptions",
	"bpred.resolved.mispredicts",
	"squash.insts",
}

// Signature is the exception-activity fingerprint of one run.
type Signature [12]uint64

func signatureOf(res cpu.Result) Signature {
	var sig Signature
	if res.Stats == nil {
		return sig
	}
	for i, name := range sigCounters {
		sig[i] = res.Stats.Get(name)
	}
	return sig
}

// Diff names the first counter two signatures disagree on.
func (s Signature) Diff(o Signature) string {
	for i := range s {
		if s[i] != o[i] {
			return fmt.Sprintf("%s %d != baseline %d", sigCounters[i], s[i], o[i])
		}
	}
	return ""
}

// MechCase is one mechanism column of the vulnerability table.
type MechCase struct {
	Name     string
	Mech     cpu.Mechanism
	Contexts int
}

// DefaultMechs is the paper's mechanism axis as campaign columns:
// software traditional, multithreaded with one and three spare
// contexts, and the hardware TLB-fill baseline.
func DefaultMechs() []MechCase {
	return []MechCase{
		{Name: "trad", Mech: cpu.MechTraditional, Contexts: 1},
		{Name: "multi1", Mech: cpu.MechMultithreaded, Contexts: 2},
		{Name: "multi3", Mech: cpu.MechMultithreaded, Contexts: 4},
		{Name: "hw", Mech: cpu.MechHardware, Contexts: 1},
	}
}

// MechByName resolves one campaign mechanism column.
func MechByName(name string) (MechCase, error) {
	for _, mc := range DefaultMechs() {
		if mc.Name == name {
			return mc, nil
		}
	}
	return MechCase{}, fmt.Errorf("faultinject: unknown mechanism %q (want trad|multi1|multi3|hw)", name)
}

// DiffCase renders the mechanism as a diffsim grid case for one
// program. Software mechanisms trap unaligned accesses and emulate
// POPC exactly as the fuzzing grid does, so the oracle comparison
// rules (skippable instructions, reference architecture variant) are
// shared verbatim.
func (mc MechCase) DiffCase(p *gen.Program) diffsim.Case {
	c := diffsim.Case{Name: mc.Name, Mech: mc.Mech, Contexts: mc.Contexts}
	if mc.Mech == cpu.MechTraditional || mc.Mech == cpu.MechMultithreaded {
		c.TrapUnaligned = p.HasUnaligned()
		c.EmulatePopc = true
	}
	return c
}

// DefaultClasses is the campaign's state-class axis.
func DefaultClasses() []cpu.FaultClass {
	return []cpu.FaultClass{cpu.FaultArchReg, cpu.FaultHandlerCtx, cpu.FaultTLB, cpu.FaultWindow}
}

// TrialConfig is the machine configuration every trial (and its
// unfaulted baseline) runs under: the case's oracle-bounded
// configuration with the invariant checker off — a flipped bit may
// legitimately violate structural invariants, and the trial must
// classify that as machine behaviour (trap, SDC, hang), not as a
// simulator assertion — and a tight no-progress watchdog so hung
// trials resolve in bounded time.
func TrialConfig(c diffsim.Case, refSteps uint64) cpu.Config {
	cfg := c.Config(refSteps)
	cfg.CheckInvariants = false
	cfg.NoProgressLimit = 200_000
	return cfg
}

// Baseline caches the per-(program, mechanism) unfaulted run every
// trial is classified against: the reference-emulator oracle plus the
// deterministic cycle count (the injection-window length) and the
// exception-activity signature.
type Baseline struct {
	Ref    *diffsim.RefRun
	Cycles uint64
	Sig    Signature
}

// NewBaseline runs the program unfaulted under the trial
// configuration. An error means the (program, mechanism) cell is
// broken before any fault is injected — a campaign setup problem, not
// a trial outcome.
func NewBaseline(p *gen.Program, mc MechCase) (*Baseline, error) {
	c := mc.DiffCase(p)
	ref, err := diffsim.NewRefRun(p, c.TrapUnaligned)
	if err != nil {
		return nil, fmt.Errorf("faultinject: reference run of %s: %w", p.Spec(), err)
	}
	return NewBaselineFrom(p, mc, ref)
}

// NewBaselineFrom is NewBaseline with a caller-cached reference run
// (the campaign driver shares one RefRun across mechanisms and
// classes of the same program).
func NewBaselineFrom(p *gen.Program, mc MechCase, ref *diffsim.RefRun) (*Baseline, error) {
	c := mc.DiffCase(p)
	rr := diffsim.RunCaseConfigured(p, c, TrialConfig(c, ref.Res.Steps), ref, nil)
	if rr.Div != nil {
		return nil, fmt.Errorf("faultinject: unfaulted baseline of %s under %s diverges: %v",
			p.Spec(), mc.Name, rr.Div)
	}
	return &Baseline{Ref: ref, Cycles: rr.Res.Cycles, Sig: signatureOf(rr.Res)}, nil
}

// Trial is one classified injection.
type Trial struct {
	Outcome Outcome
	Plan    cpu.FaultPlan
	// Fired reports whether the armed flip found a live target;
	// FiredAt and Target describe it when it did. A plan that never
	// fired is necessarily masked.
	Fired   bool
	FiredAt uint64
	Target  string
	// Kind is the divergence kind for non-masked outcomes
	// ("trace", "registers", "memory", "livelock", "panic", ...) or
	// "signature" for a detected trial; Detail narrates it.
	Kind   string
	Detail string
}

// RunTrials classifies one trial per plan against the baseline and
// returns them in plan order. It simulates the unfaulted prefix once:
// one unfaulted machine steps through the plans in increasing At
// order, and each trial runs on a clone taken at the cycle its flip
// fires (diffsim.Fork.RunFault), in the machine of the trial before,
// yielding the Trial a run armed before cycle 0 would. A plan that
// never fires is the baseline's trial, masked, and needs no clone.
// ctx is checked between trials.
func RunTrials(ctx context.Context, p *gen.Program, mc MechCase, b *Baseline, plans []cpu.FaultPlan) ([]Trial, error) {
	c := mc.DiffCase(p)
	fork := diffsim.NewFork(p, c, TrialConfig(c, b.Ref.Res.Steps), b.Ref)
	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(plans[i].At, plans[j].At) })
	trials := make([]Trial, len(plans))
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rr, rec := fork.RunFault(plans[i])
		trials[i] = classify(b, plans[i], rec, rr)
	}
	return trials, nil
}

// RunTrial executes one armed run and classifies it against the
// baseline: RunTrials with a single plan. Equal (p, mc, plan) inputs
// produce equal Trials.
func RunTrial(p *gen.Program, mc MechCase, b *Baseline, plan cpu.FaultPlan) Trial {
	// A background context is never cancelled, so there is no error.
	trials, _ := RunTrials(context.Background(), p, mc, b, []cpu.FaultPlan{plan})
	return trials[0]
}

// classify turns one armed run and its fault record into its Trial.
func classify(b *Baseline, plan cpu.FaultPlan, rec cpu.FaultRecord, rr diffsim.RunResult) Trial {
	t := Trial{Plan: plan, Fired: rec.Applied, FiredAt: rec.Cycle, Target: rec.Target}
	if rr.Div == nil {
		if sig := signatureOf(rr.Res); sig != b.Sig {
			t.Outcome = Detected
			t.Kind = "signature"
			t.Detail = sig.Diff(b.Sig)
		} else {
			t.Outcome = Masked
		}
		return t
	}
	t.Kind = rr.Div.Kind
	t.Detail = rr.Div.Detail
	switch rr.Div.Kind {
	case "panic", "error":
		t.Outcome = Crash
	case "livelock", "nohalt":
		t.Outcome = Hang
	default: // trace, registers, memory
		t.Outcome = SDC
	}
	return t
}

// splitmix64 advances the campaign's plan-derivation sequence.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b5
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fnv64a hashes a string (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// PlanFor derives trial i's fault plan for one campaign cell: the
// flip seed and the injection cycle, drawn uniformly over the first
// frac of the baseline's cycle count (the tail is excluded so most
// flips land while the program is still running — a flip after the
// last commit is trivially masked). The derivation mixes the campaign
// seed, the cell key and the trial index, so every cell of a campaign
// explores distinct flips yet any single trial is reconstructible
// from (seed, cell, i) alone.
func PlanFor(campaignSeed uint64, cellKey string, i int, class cpu.FaultClass, baseCycles uint64, frac float64) cpu.FaultPlan {
	if frac <= 0 || frac > 1 {
		frac = 0.85
	}
	s := campaignSeed ^ fnv64a(cellKey) ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	window := uint64(frac * float64(baseCycles))
	if window == 0 {
		window = 1
	}
	at := 1 + splitmix64(&s)%window
	return cpu.FaultPlan{Class: class, At: at, Seed: splitmix64(&s)}
}
