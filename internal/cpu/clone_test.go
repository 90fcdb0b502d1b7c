package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"mtexc/internal/diffsim/gen"
	"mtexc/internal/vm"
)

// The clone equivalence property: a machine and its Clone share the
// present, so they must share the future. Run a program partway,
// clone the machine mid-flight — in-flight exceptions, parked loads,
// speculative TLB fills and all — and both copies must produce the
// same retirement stream, cycle for cycle, the same final
// architectural state and the same statistics, while neither run
// perturbs the other.

// cloneTestConfig builds the configuration one equivalence trial runs
// under.
func cloneTestConfig(mech Mechanism, contexts int, quick bool) Config {
	cfg := DefaultConfig()
	cfg.Mech = mech
	cfg.Contexts = contexts
	cfg.QuickStart = quick
	cfg.CheckInvariants = true
	cfg.EmulatePopc = mech == MechTraditional || mech == MechMultithreaded
	cfg.MaxInsts = 5_000_000
	cfg.MaxCycles = 20_000_000
	return cfg
}

// buildGenMachine constructs a machine running one generated program.
func buildGenMachine(t *testing.T, cfg Config, p *gen.Program) (*Machine, int) {
	t.Helper()
	m := New(cfg)
	img, err := p.BuildImage(m.Phys(), 1, cfg.PageTable)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := m.AddProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	return m, tid
}

// stepCycles advances the machine exactly n cycles (or until every
// context halts), leaving it mid-run.
func stepCycles(m *Machine, n uint64) {
	for i := uint64(0); i < n && !m.allHalted(); i++ {
		m.step()
	}
}

// runOutcome is everything a finished run is judged by: the full
// retirement stream from the observation point, the run summary, the
// application thread's architectural state, the memory image and the
// rendered statistics (counters, histograms, span breakdowns — in
// registration order).
type runOutcome struct {
	stream  []RetiredInst
	cycles  uint64
	insts   uint64
	misses  uint64
	regs    interface{}
	memHash uint64
	stats   string
}

// finishRun attaches a retirement recorder, runs the machine to
// completion and collects the outcome.
func finishRun(t *testing.T, m *Machine, tid int) runOutcome {
	t.Helper()
	var stream []RetiredInst
	m.RetireHook = func(ri RetiredInst) { stream = append(stream, ri) }
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Machine.Run: %v", err)
	}
	if res.Cycles >= m.cfg.MaxCycles {
		t.Fatal("did not halt within the cycle budget")
	}
	return runOutcome{
		stream:  stream,
		cycles:  res.Cycles,
		insts:   res.AppInsts,
		misses:  res.DTLBMisses,
		regs:    m.ArchRegs(tid),
		memHash: m.threads[tid].as.ContentHash(),
		stats:   m.Stats.String(),
	}
}

// checkOutcome compares two outcomes field by field with targeted
// diagnostics.
func checkOutcome(t *testing.T, label string, got, want runOutcome) {
	t.Helper()
	if len(got.stream) != len(want.stream) {
		t.Errorf("%s: retirement stream length %d != %d", label, len(got.stream), len(want.stream))
	} else {
		for i := range got.stream {
			if got.stream[i] != want.stream[i] {
				t.Errorf("%s: retirement %d diverges: %+v != %+v", label, i, got.stream[i], want.stream[i])
				break
			}
		}
	}
	if got.cycles != want.cycles || got.insts != want.insts || got.misses != want.misses {
		t.Errorf("%s: summary (cycles=%d insts=%d misses=%d) != (cycles=%d insts=%d misses=%d)",
			label, got.cycles, got.insts, got.misses, want.cycles, want.insts, want.misses)
	}
	if got.regs != want.regs {
		t.Errorf("%s: architectural register files differ", label)
	}
	if got.memHash != want.memHash {
		t.Errorf("%s: memory hash %#x != %#x", label, got.memHash, want.memHash)
	}
	if got.stats != want.stats {
		t.Errorf("%s: statistics diverge:\n--- clone\n%s\n--- original\n%s", label, got.stats, want.stats)
	}
}

func TestCloneEquivalenceMidRun(t *testing.T) {
	configs := []struct {
		name     string
		mech     Mechanism
		contexts int
		quick    bool
	}{
		{"traditional", MechTraditional, 1, false},
		{"multithreaded(1)", MechMultithreaded, 2, false},
		{"multithreaded(3)", MechMultithreaded, 4, false},
		{"quickstart", MechMultithreaded, 2, true},
		{"hardware", MechHardware, 1, false},
	}
	limits := gen.Limits{MaxPages: 128, NoFault: true, NoUnaligned: true}
	for trial, prefix := range []uint64{0, 137, 2000, 4096} {
		p := gen.Generate(int64(4100+trial), limits)
		for _, c := range configs {
			t.Run(fmt.Sprintf("%s/prefix%d", c.name, prefix), func(t *testing.T) {
				m, tid := buildGenMachine(t, cloneTestConfig(c.mech, c.contexts, c.quick), p)
				stepCycles(m, prefix)
				clone := m.Clone()
				// The clone runs to completion first; the original —
				// whose outcome is collected afterwards — would show
				// any state the clone's run leaked into it.
				got := finishRun(t, clone, tid)
				want := finishRun(t, m, tid)
				checkOutcome(t, c.name, got, want)
			})
		}
	}
}

// TestCloneEquivalenceTwoLevel: the property holds over a two-level
// page table, whose walks keep more intermediate state in flight.
func TestCloneEquivalenceTwoLevel(t *testing.T) {
	limits := gen.Limits{MaxPages: 128, NoFault: true, NoUnaligned: true}
	p := gen.Generate(4200, limits)
	for _, mech := range []Mechanism{MechMultithreaded, MechHardware} {
		cfg := cloneTestConfig(mech, 2, false)
		cfg.PageTable = vm.PTTwoLevel
		m, tid := buildGenMachine(t, cfg, p)
		stepCycles(m, 1500)
		clone := m.Clone()
		got := finishRun(t, clone, tid)
		want := finishRun(t, m, tid)
		checkOutcome(t, mech.String()+"/twolevel", got, want)
	}
}

// TestCloneEquivalenceSampler: a machine with an interval sampler
// clones its series mid-epoch; both copies must report identical
// time series afterwards.
func TestCloneEquivalenceSampler(t *testing.T) {
	limits := gen.Limits{MaxPages: 64, NoFault: true, NoUnaligned: true}
	p := gen.Generate(4300, limits)
	cfg := cloneTestConfig(MechMultithreaded, 2, false)
	cfg.SampleInterval = 1000
	m, tid := buildGenMachine(t, cfg, p)
	stepCycles(m, 2500) // mid-epoch: 2.5 sampling intervals in
	clone := m.Clone()
	got := finishRun(t, clone, tid)
	want := finishRun(t, m, tid)
	checkOutcome(t, "sampler", got, want)
	gs, ws := clone.Observ.Series(), m.Observ.Series()
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("sampled series diverge: %v != %v", gs, ws)
	}
}

// TestCloneIsolation: writes through a clone must not reach the
// original's memory, TLB or caches, and vice versa.
func TestCloneIsolation(t *testing.T) {
	limits := gen.Limits{MaxPages: 64, NoFault: true, NoUnaligned: true}
	p := gen.Generate(4500, limits)
	m, tid := buildGenMachine(t, cloneTestConfig(MechMultithreaded, 2, false), p)
	stepCycles(m, 1000)
	before := m.threads[tid].as.ContentHash()
	dtlbBefore := *m.dtlb
	clone := m.Clone()
	if _, err := clone.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.threads[tid].as.ContentHash(); got != before {
		t.Errorf("clone run mutated original memory: hash %#x -> %#x", before, got)
	}
	if m.dtlb.Fills != dtlbBefore.Fills || m.dtlb.Hits != dtlbBefore.Hits {
		t.Error("clone run mutated original TLB statistics")
	}
}

// FuzzCloneEquivalence drives the clone property from fuzzed inputs:
// the program seed, the clone point and the configuration corner are
// all attacker-chosen.
func FuzzCloneEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(1), false)
	f.Add(int64(2), uint16(0), uint8(2), true)
	f.Add(int64(3), uint16(3000), uint8(0), false)
	f.Add(int64(4), uint16(77), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, prefix uint16, mechSel uint8, quick bool) {
		var mech Mechanism
		contexts := 1
		switch mechSel % 3 {
		case 0:
			mech = MechTraditional
		case 1:
			mech = MechMultithreaded
			contexts = 2
		case 2:
			mech = MechHardware
		}
		if quick && mech != MechMultithreaded {
			quick = false
		}
		p := gen.Generate(seed, gen.Limits{MaxPages: 64, NoFault: true, NoUnaligned: true})
		m, tid := buildGenMachine(t, cloneTestConfig(mech, contexts, quick), p)
		stepCycles(m, uint64(prefix))
		clone := m.Clone()
		got := finishRun(t, clone, tid)
		want := finishRun(t, m, tid)
		checkOutcome(t, "fuzz", got, want)
	})
}
