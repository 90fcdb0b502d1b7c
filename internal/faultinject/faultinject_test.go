package faultinject

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/isa"
	"mtexc/internal/obs"
	"mtexc/internal/workload"
)

// testProgram is one deterministic no-fault generated program shared
// by the package's trial tests.
func testProgram(t *testing.T) *gen.Program {
	t.Helper()
	return gen.Generate(101, gen.Limits{NoFault: true})
}

// runFingerprint serializes everything a run observably produced:
// the stats table plus the schema-versioned obs snapshot JSON.
func runFingerprint(t *testing.T, res cpu.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(res.Stats.String())
	if err := obs.WriteJSON(&buf, obs.BuildSnapshot(obs.Meta{
		Cycles: res.Cycles, AppInsts: res.AppInsts, IPC: res.IPC,
	}, res.Stats, res.Obs)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestZeroFlipIsByteIdentical is the purity property the whole
// subsystem rests on: arming a plan that never flips anything (class
// FaultNone, or an injection cycle beyond the end of the run) leaves
// the run byte-identical — stats table and obs snapshot — to a run
// that never heard of fault injection.
func TestZeroFlipIsByteIdentical(t *testing.T) {
	p := testProgram(t)
	mc, err := MechByName("multi1")
	if err != nil {
		t.Fatal(err)
	}
	c := mc.DiffCase(p)
	ref, err := diffsim.NewRefRun(p, c.TrapUnaligned)
	if err != nil {
		t.Fatalf("NewRefRun: %v", err)
	}
	cfg := TrialConfig(c, ref.Res.Steps)

	run := func(pre func(*cpu.Machine)) []byte {
		rr := diffsim.RunCaseConfigured(p, c, cfg, ref, pre)
		if rr.Div != nil {
			t.Fatalf("unexpected divergence: %v", rr.Div)
		}
		return runFingerprint(t, rr.Res)
	}

	base := run(nil)
	noneClass := run(func(m *cpu.Machine) {
		m.SetFaultPlan(cpu.FaultPlan{Class: cpu.FaultNone, At: 1, Seed: 42})
	})
	beyondEnd := run(func(m *cpu.Machine) {
		m.SetFaultPlan(cpu.FaultPlan{Class: cpu.FaultArchReg, At: cfg.MaxCycles + 1, Seed: 42})
	})

	if !bytes.Equal(base, noneClass) {
		t.Errorf("FaultNone plan perturbed the run (fingerprints differ)")
	}
	if !bytes.Equal(base, beyondEnd) {
		t.Errorf("never-reached plan perturbed the run (fingerprints differ)")
	}
}

// TestSameSeedSamePlanReproduces: equal (program, mechanism, plan)
// inputs produce equal Trials — the contract -replay depends on.
func TestSameSeedSamePlanReproduces(t *testing.T) {
	p := testProgram(t)
	for _, name := range []string{"trad", "multi1", "hw"} {
		mc, err := MechByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBaseline(p, mc)
		if err != nil {
			t.Fatalf("NewBaseline(%s): %v", name, err)
		}
		for i := 0; i < 3; i++ {
			plan := PlanFor(1, "test|"+name, i, cpu.FaultArchReg, b.Cycles, 0.85)
			t1 := RunTrial(p, mc, b, plan)
			t2 := RunTrial(p, mc, b, plan)
			if t1 != t2 {
				t.Errorf("%s trial %d not reproducible:\n  first:  %+v\n  second: %+v",
					name, i, t1, t2)
			}
		}
	}
}

// TestPlanForDeterminism: plan derivation is a pure function of
// (campaign seed, cell key, trial index), distinct across indices,
// and in-window.
func TestPlanForDeterminism(t *testing.T) {
	const cycles = 10_000
	a := PlanFor(7, "reg|trad|spec", 0, cpu.FaultArchReg, cycles, 0.85)
	b := PlanFor(7, "reg|trad|spec", 0, cpu.FaultArchReg, cycles, 0.85)
	if a != b {
		t.Errorf("PlanFor not deterministic: %+v vs %+v", a, b)
	}
	c := PlanFor(7, "reg|trad|spec", 1, cpu.FaultArchReg, cycles, 0.85)
	if a == c {
		t.Errorf("distinct trial indices derived the same plan: %+v", a)
	}
	d := PlanFor(8, "reg|trad|spec", 0, cpu.FaultArchReg, cycles, 0.85)
	if a == d {
		t.Errorf("distinct campaign seeds derived the same plan: %+v", a)
	}
	for i := 0; i < 50; i++ {
		pl := PlanFor(7, "k", i, cpu.FaultTLB, cycles, 0.85)
		if pl.At < 1 || pl.At > uint64(0.85*float64(cycles)) {
			t.Fatalf("trial %d injection cycle %d outside (0, %d]", i, pl.At, uint64(0.85*cycles))
		}
	}
	// Degenerate windows still yield a legal cycle.
	if pl := PlanFor(7, "k", 0, cpu.FaultTLB, 0, 0.85); pl.At != 1 {
		t.Errorf("zero-cycle baseline: At = %d, want 1", pl.At)
	}
}

// TestReplayTokenRoundTrip: ReplayToken and ParseReplayToken invert
// each other for every (class, outcome) combination.
func TestReplayTokenRoundTrip(t *testing.T) {
	spec := testProgram(t).Spec()
	for _, class := range DefaultClasses() {
		for _, o := range Outcomes {
			tok := ReplayToken(spec, "multi3", class, 1234, 0xdeadbeef, o)
			rt, err := ParseReplayToken(tok)
			if err != nil {
				t.Fatalf("ParseReplayToken(%q): %v", tok, err)
			}
			if rt.Spec != spec || rt.Mech.Name != "multi3" ||
				rt.Plan.Class != class || rt.Plan.At != 1234 ||
				rt.Plan.Seed != 0xdeadbeef || rt.Expect != o {
				t.Errorf("round trip of %q lost fields: %+v", tok, rt)
			}
		}
	}
}

// TestParseReplayTokenErrors: malformed tokens are rejected, not
// half-parsed.
func TestParseReplayTokenErrors(t *testing.T) {
	bad := []string{
		"",
		"fi2;spec=x;mech=trad;class=reg;at=1;seed=0x1;expect=sdc",
		"fi1;spec=x;mech=trad;class=reg;at=1;seed=0x1", // missing expect
		"fi1;spec=x;mech=nope;class=reg;at=1;seed=0x1;expect=sdc",
		"fi1;spec=x;mech=trad;class=nope;at=1;seed=0x1;expect=sdc",
		"fi1;spec=x;mech=trad;class=reg;at=zz;seed=0x1;expect=sdc",
		"fi1;spec=x;mech=trad;class=reg;at=1;seed=0x1;expect=weird",
		"fi1;garbage",
	}
	for _, tok := range bad {
		if _, err := ParseReplayToken(tok); err == nil {
			t.Errorf("ParseReplayToken(%q) = nil error, want failure", tok)
		}
	}
}

// TestOutcomeParseRoundTrip covers the outcome vocabulary.
func TestOutcomeParseRoundTrip(t *testing.T) {
	for _, o := range Outcomes {
		got, err := ParseOutcome(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOutcome(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if _, err := ParseOutcome("bogus"); err == nil {
		t.Error("ParseOutcome(bogus) succeeded")
	}
}

// TestUnfiredTrialIsMasked: a plan armed after the end of the run
// never fires and must classify as masked.
func TestUnfiredTrialIsMasked(t *testing.T) {
	p := testProgram(t)
	mc, _ := MechByName("trad")
	b, err := NewBaseline(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	tr := RunTrial(p, mc, b, cpu.FaultPlan{Class: cpu.FaultArchReg, At: 1 << 40, Seed: 9})
	if tr.Fired {
		t.Errorf("plan at cycle 2^40 fired at %d (%s)", tr.FiredAt, tr.Target)
	}
	if tr.Outcome != Masked {
		t.Errorf("unfired trial classified %s, want masked", tr.Outcome)
	}
}

// armedRun is everything one armed run observably produced.
type armedRun struct {
	retired     []cpu.RetiredInst
	fingerprint []byte // stats table + obs snapshot; nil after a panic
	cycles      uint64
	regs        isa.RegFile
	rec         cpu.FaultRecord
	err         string
}

// runArmed runs p under cfg with plan armed. With fork set, the
// machine steps unarmed to plan.At and the plan is armed on a clone
// taken there, which finishes the run; otherwise the plan is armed
// before cycle 0. The retirement stream spans both machines.
func runArmed(t *testing.T, p *gen.Program, cfg cpu.Config, plan cpu.FaultPlan, fork bool) armedRun {
	t.Helper()
	var out armedRun
	m := cpu.New(cfg)
	img, err := p.BuildImage(m.Phys(), 1, cfg.PageTable)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := m.AddProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	record := func(ri cpu.RetiredInst) { out.retired = append(out.retired, ri) }
	m.RetireHook = record
	if fork {
		for m.Now() < plan.At && m.StepCycle() {
		}
		if m.Now() != plan.At {
			t.Fatalf("unarmed prefix halted at cycle %d, before injection cycle %d", m.Now(), plan.At)
		}
		m = m.Clone()
		m.RetireHook = record
	}
	m.SetFaultPlan(plan)
	res, err := func() (res cpu.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return m.Run()
	}()
	if res.Stats != nil {
		out.fingerprint = runFingerprint(t, res)
	}
	out.cycles = m.Now()
	out.regs = m.ArchRegs(tid)
	out.rec = m.FaultRecord()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestCloneAtInjectionMatchesReplay is the property that lets a
// campaign fork trials off one unfaulted machine instead of replaying
// each trial's prefix from cycle 0: stepping to the plan's injection
// cycle, cloning and arming the clone yields the same retirement
// stream, result, statistics, registers, fault record and error as
// arming the plan before cycle 0. It sweeps the campaign's own grid
// under the trial configuration, so the clone is exercised with the
// invariant checker off, unaligned and POPC traps on, and flips in
// every state class.
func TestCloneAtInjectionMatchesReplay(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, spec := range workload.FaultInjectionSuite() {
		p, err := gen.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range DefaultMechs() {
			b, err := NewBaseline(p, mc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := TrialConfig(mc.DiffCase(p), b.Ref.Res.Steps)
			for _, class := range DefaultClasses() {
				key := fmt.Sprintf("%s|%s|%s", class, mc.Name, spec)
				for i := 0; i < trials; i++ {
					plan := PlanFor(1, key, i, class, b.Cycles, 0.85)
					replay := runArmed(t, p, cfg, plan, false)
					fork := runArmed(t, p, cfg, plan, true)
					name := fmt.Sprintf("%s trial %d (at %d)", key, i, plan.At)
					switch {
					case !slices.Equal(fork.retired, replay.retired):
						t.Errorf("%s: retirement streams differ (%d vs %d retired)",
							name, len(fork.retired), len(replay.retired))
					case !bytes.Equal(fork.fingerprint, replay.fingerprint):
						t.Errorf("%s: result or statistics differ", name)
					case fork.cycles != replay.cycles || fork.regs != replay.regs:
						t.Errorf("%s: final cycle or registers differ (%d vs %d cycles)",
							name, fork.cycles, replay.cycles)
					case fork.rec != replay.rec:
						t.Errorf("%s: fault record %+v, replay %+v", name, fork.rec, replay.rec)
					case fork.err != replay.err:
						t.Errorf("%s: error %q, replay %q", name, fork.err, replay.err)
					}
				}
			}
		}
	}
}
