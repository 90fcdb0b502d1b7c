package faultinject

import (
	"bytes"
	"context"
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
		for m.Now() < plan.At && !m.Done() {
			if err := m.StepCycle(); err != nil {
				t.Fatalf("unarmed prefix: %v", err)
			}
		}
		if m.Now() != plan.At {
			t.Fatalf("unarmed prefix halted at cycle %d, before injection cycle %d", m.Now(), plan.At)
		}
		m = m.CloneInto(nil)
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

// TestForkedCloneMatchesReplayAtEdges: diffsim.Fork.RunFault, fed plans out of
// order, with a repeated injection cycle, at cycle 1, at the
// unfaulted run's last cycle and far past it, returns exactly what
// RunCaseConfigured returns with the plan armed before cycle 0: the
// same divergence, cycle count, statistics and observations, and
// fault record. The last two plans fork a prefix that has already
// halted.
func TestForkedCloneMatchesReplayAtEdges(t *testing.T) {
	p := testProgram(t)
	for _, name := range []string{"trad", "multi3"} {
		mc, _ := MechByName(name)
		b, err := NewBaseline(p, mc)
		if err != nil {
			t.Fatal(err)
		}
		c := mc.DiffCase(p)
		cfg := TrialConfig(c, b.Ref.Res.Steps)
		key := "edges|" + name
		mid := PlanFor(1, key, 0, cpu.FaultArchReg, b.Cycles, 0.85)
		plans := []cpu.FaultPlan{
			mid,
			PlanFor(1, key, 1, cpu.FaultWindow, b.Cycles, 0.85),
			{Class: cpu.FaultTLB, At: mid.At, Seed: mid.Seed + 1},
			{Class: cpu.FaultArchReg, At: 1, Seed: 3},
			PlanFor(1, key, 2, cpu.FaultHandlerCtx, b.Cycles, 0.85),
			{Class: cpu.FaultArchReg, At: b.Cycles, Seed: 4},
			{Class: cpu.FaultArchReg, At: 1 << 40, Seed: 5},
			{Class: cpu.FaultWindow, At: b.Cycles / 3, Seed: 6},
		}
		fork := diffsim.NewFork(p, c, cfg, b.Ref)
		for i, plan := range plans {
			var rm *cpu.Machine
			got, rec := fork.RunFault(plan)
			want := diffsim.RunCaseConfigured(p, c, cfg, b.Ref, func(m *cpu.Machine) { rm = m; m.SetFaultPlan(plan) })
			where := fmt.Sprintf("%s plan %d (at %d, baseline %d cycles)", name, i, plan.At, b.Cycles)
			switch {
			case (got.Div == nil) != (want.Div == nil) || got.Div != nil && *got.Div != *want.Div:
				t.Errorf("%s: divergence %v, replay %v", where, got.Div, want.Div)
			case got.Res.Cycles != want.Res.Cycles:
				t.Errorf("%s: %d cycles, replay %d", where, got.Res.Cycles, want.Res.Cycles)
			case !bytes.Equal(runFingerprint(t, got.Res), runFingerprint(t, want.Res)):
				t.Errorf("%s: statistics or observations differ", where)
			case rec != rm.FaultRecord():
				t.Errorf("%s: fault record %+v, replay %+v", where, rec, rm.FaultRecord())
			}
		}
	}
}

// TestForkedPrefixLivelockMatchesReplay: when the unarmed prefix
// itself trips the no-progress watchdog before a plan's injection
// cycle, Fork.RunFault reports the livelock RunCaseConfigured reports
// for the armed run, at the same cycle, and keeps doing so for later
// plans.
func TestForkedPrefixLivelockMatchesReplay(t *testing.T) {
	p := testProgram(t)
	mc, _ := MechByName("trad")
	b, err := NewBaseline(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	c := mc.DiffCase(p)
	cfg := TrialConfig(c, b.Ref.Res.Steps)
	cfg.NoProgressLimit = 40
	fork := diffsim.NewFork(p, c, cfg, b.Ref)
	for _, at := range []uint64{b.Cycles / 2, b.Cycles / 2, b.Cycles} {
		plan := cpu.FaultPlan{Class: cpu.FaultArchReg, At: at, Seed: 9}
		got, _ := fork.RunFault(plan)
		want := diffsim.RunCaseConfigured(p, c, cfg, b.Ref, func(m *cpu.Machine) { m.SetFaultPlan(plan) })
		if want.Div == nil || want.Div.Kind != "livelock" || want.Res.Cycles >= at {
			t.Fatalf("at %d: replay %v after %d cycles, want a livelock before the injection cycle", at, want.Div, want.Res.Cycles)
		}
		switch {
		case got.Div == nil || *got.Div != *want.Div:
			t.Errorf("at %d: divergence %v, replay %v", at, got.Div, want.Div)
		case !bytes.Equal(runFingerprint(t, got.Res), runFingerprint(t, want.Res)):
			t.Errorf("at %d: statistics or observations differ (%d vs %d cycles)", at, got.Res.Cycles, want.Res.Cycles)
		}
	}
}

// replayTrial classifies plan armed before cycle 0 of a machine of
// its own, the run RunTrials' forks stand in for.
func replayTrial(p *gen.Program, mc MechCase, b *Baseline, plan cpu.FaultPlan) Trial {
	c := mc.DiffCase(p)
	var m *cpu.Machine
	rr := diffsim.RunCaseConfigured(p, c, TrialConfig(c, b.Ref.Res.Steps), b.Ref, func(mm *cpu.Machine) {
		m = mm
		mm.SetFaultPlan(plan)
	})
	return classify(b, plan, m.FaultRecord(), rr)
}

// checkTrials runs plans through RunTrials and fails on any Trial
// that differs from its replay.
func checkTrials(t *testing.T, label string, p *gen.Program, mc MechCase, b *Baseline, plans []cpu.FaultPlan) []Trial {
	t.Helper()
	got, err := RunTrials(context.Background(), p, mc, b, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, plan := range plans {
		if want := replayTrial(p, mc, b, plan); got[i] != want {
			t.Errorf("%s plan %d (%s at %d): forked %+v, replay %+v", label, i, plan.Class, plan.At, got[i], want)
		}
	}
	return got
}

// TestForkedCloneTrialsMatchReplay: RunTrials, which forks each trial
// where its flip fires and recycles the machine of the trial before,
// classifies every plan exactly as a run armed before cycle 0 does:
// equal Trials, field for field, over the campaign's whole default
// grid. It also covers plans of mixed classes out of At order (which
// reload the unarmed machine), s202's TLB plans, which all wait for
// the one late cycle its DTLB first holds an entry, and handler plans
// under the hardware mechanism that start after its last walk and
// never fire.
func TestForkedCloneTrialsMatchReplay(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 2
	}
	specs := workload.FaultInjectionSuite()
	for _, spec := range specs {
		p, err := gen.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range DefaultMechs() {
			b, err := NewBaseline(p, mc)
			if err != nil {
				t.Fatal(err)
			}
			for _, class := range DefaultClasses() {
				key := fmt.Sprintf("%s|%s|%s", class, mc.Name, spec)
				plans := make([]cpu.FaultPlan, trials)
				for i := range plans {
					plans[i] = PlanFor(1, key, i, class, b.Cycles, 0)
				}
				checkTrials(t, key, p, mc, b, plans)
			}
		}
	}

	p, err := gen.ParseSpec(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trad", "hw"} {
		mc, _ := MechByName(name)
		b, err := NewBaseline(p, mc)
		if err != nil {
			t.Fatal(err)
		}
		var mixed []cpu.FaultPlan
		for i, class := range []cpu.FaultClass{cpu.FaultTLB, cpu.FaultWindow, cpu.FaultArchReg, cpu.FaultHandlerCtx} {
			for j := uint64(0); j < 2; j++ {
				mixed = append(mixed, cpu.FaultPlan{Class: class, At: b.Cycles * (4 - uint64(i) + 3*j) / 8, Seed: uint64(i)*10 + j})
			}
		}
		checkTrials(t, name+" mixed", p, mc, b, mixed)

		late := make([]cpu.FaultPlan, 6)
		for i := range late {
			late[i] = cpu.FaultPlan{Class: cpu.FaultTLB, At: 1 + b.Cycles*uint64(i)/8, Seed: uint64(i)}
		}
		got := checkTrials(t, name+" tlb", p, mc, b, late)
		for i, tr := range got {
			if !tr.Fired || tr.FiredAt != got[0].FiredAt || tr.FiredAt < b.Cycles/2 {
				t.Errorf("%s tlb plan %d (at %d) fired %v at %d: s202's TLB plans should all fire at one late cycle",
					name, i, tr.Plan.At, tr.Fired, tr.FiredAt)
			}
		}
	}

	mc, _ := MechByName("hw")
	b, err := NewBaseline(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	never := []cpu.FaultPlan{
		{Class: cpu.FaultHandlerCtx, At: b.Cycles - 1, Seed: 1},
		{Class: cpu.FaultHandlerCtx, At: b.Cycles - 1, Seed: 2},
		{Class: cpu.FaultArchReg, At: b.Cycles / 2, Seed: 3},
	}
	for i, tr := range checkTrials(t, "hw never", p, mc, b, never)[:2] {
		if tr.Fired || tr.Outcome != Masked {
			t.Errorf("hw handler plan %d at %d: fired %v, %s; want a masked plan that never fires", i, tr.Plan.At, tr.Fired, tr.Outcome)
		}
	}
}

// TestFaultTargetNames pins the name a flip reports for each kind of
// site, and the cycle it fires at: replay output and telemetry events
// print them, and only the flipped site is named, so a change to the
// enumeration order or a format string shows here first.
func TestFaultTargetNames(t *testing.T) {
	p, err := gen.ParseSpec(workload.FaultInjectionSuite()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mech    string
		plan    cpu.FaultPlan
		firedAt uint64
		target  string
	}{
		{"trad", cpu.FaultPlan{Class: cpu.FaultArchReg, At: 70, Seed: 17529683047194977110}, 70, "tid0 r19 bit3"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultArchReg, At: 990, Seed: 6302967268817107850}, 990, "tid0 f21 bit57"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultHandlerCtx, At: 1775, Seed: 669276693619378032}, 1786, "h0.excPC bit34"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultHandlerCtx, At: 690, Seed: 5611617660608213515}, 708, "h0.faultVA bit61"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultHandlerCtx, At: 853, Seed: 7643777632067781321}, 855, "h0.tid0.s17 bit26"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultHandlerCtx, At: 486, Seed: 11401285483386621746}, 486, "h0.tid0.priv1 bit41"},
		{"multi1", cpu.FaultPlan{Class: cpu.FaultHandlerCtx, At: 1107, Seed: 14151682044242253653}, 1107, "h0.tid1.r14 bit29"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultTLB, At: 1004, Seed: 1916663729013342428}, 1004, "tlb[63].valid"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultTLB, At: 1881, Seed: 3106800445769613424}, 1881, "tlb[63].asn bit7"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultWindow, At: 190, Seed: 916662412864927683}, 218, "w.seq34.add.result bit55"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultWindow, At: 1133, Seed: 14368021854084215064}, 1133, "w.seq2124.stq.storeVal bit57"},
		{"trad", cpu.FaultPlan{Class: cpu.FaultWindow, At: 515, Seed: 9991448306920175729}, 515, "w.seq114.rfe.nextPC bit31"},
	} {
		mc, _ := MechByName(c.mech)
		b, err := NewBaseline(p, mc)
		if err != nil {
			t.Fatal(err)
		}
		if tr := RunTrial(p, mc, b, c.plan); !tr.Fired || tr.FiredAt != c.firedAt || tr.Target != c.target {
			t.Errorf("%s %s plan at %d: fired %v at %d on %q, want %d on %q",
				c.mech, c.plan.Class, c.plan.At, tr.Fired, tr.FiredAt, tr.Target, c.firedAt, c.target)
		}
	}
}
