package core_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/workload"
)

// sampleTolerance is the acceptance band for sampled-vs-exact
// penalty-per-miss: the reported CI plus a small edge allowance for
// effects sampling cannot see (the exact run's cold-start ramp, and
// misses whose stall spills across a window boundary).
func sampleTolerance(exact, ci float64) float64 {
	edge := 0.05*math.Abs(exact) + 0.75
	return ci + edge
}

// TestSampleCompareMatchesExact: the sampled estimator reproduces the
// exact penalty-per-miss within tolerance for the software and
// hardware mechanisms on a TLB-heavy workload.
func TestSampleCompareMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-exact comparison simulates ~2M detailed instructions")
	}
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	spec := core.SampleSpec{Period: 50_000, Warmup: 10_000, Window: 10_000}
	for _, tc := range []struct {
		name string
		mech core.Mechanism
		ctxs int
	}{
		{"traditional", core.MechTraditional, 1},
		{"multi(1)", core.MechMultithreaded, 2},
		{"hardware", core.MechHardware, 1},
	} {
		cfg := core.DefaultConfig()
		cfg.Mech = tc.mech
		cfg.Contexts = tc.ctxs
		cfg.MaxInsts = 600_000
		cfg.MaxCycles = 400 * cfg.MaxInsts
		exact, err := core.Compare(cfg, w)
		if err != nil {
			t.Fatalf("%s: exact: %v", tc.name, err)
		}
		s, err := core.SampleCompare(cfg, spec, w)
		if err != nil {
			t.Fatalf("%s: sampled: %v", tc.name, err)
		}
		if s.Windows < 5 {
			t.Fatalf("%s: only %d windows measured", tc.name, s.Windows)
		}
		if s.TotalInsts != cfg.MaxInsts {
			t.Fatalf("%s: functional tier committed %d insts, want %d", tc.name, s.TotalInsts, cfg.MaxInsts)
		}
		want := exact.PenaltyPerMiss()
		tol := sampleTolerance(want, s.CI95)
		if diff := math.Abs(s.PenaltyPerMiss - want); diff > tol {
			t.Errorf("%s: sampled %.2f±%.2f vs exact %.2f: |Δ|=%.2f exceeds tolerance %.2f",
				tc.name, s.PenaltyPerMiss, s.CI95, want, diff, tol)
		}
		if s.DetailedInsts >= cfg.MaxInsts {
			t.Errorf("%s: detailed insts %d not smaller than the full run %d",
				tc.name, s.DetailedInsts, cfg.MaxInsts)
		}
	}
}

// TestSampleCompareDeterministic: equal inputs give bit-equal
// estimates (the harness determinism contract extends to sampling).
func TestSampleCompareDeterministic(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechTraditional
	cfg.MaxInsts = 200_000
	cfg.MaxCycles = 400 * cfg.MaxInsts
	spec := core.SampleSpec{Period: 40_000, Warmup: 5_000, Window: 5_000}
	a, err := core.SampleCompare(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.SampleCompare(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical sampled runs differ:\n%+v\n%+v", a, b)
	}
}

func TestSampleSpecParse(t *testing.T) {
	s, err := core.ParseSampleSpec("100000:5000:10000")
	if err != nil {
		t.Fatal(err)
	}
	want := core.SampleSpec{Period: 100_000, Warmup: 5_000, Window: 10_000}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if got := s.String(); got != "100000:5000:10000" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "5", "1:2", "x:y:z", "1000:600:600", "0:0:0"} {
		if _, err := core.ParseSampleSpec(bad); err == nil {
			t.Errorf("ParseSampleSpec(%q) accepted", bad)
		}
	}
}

func TestSampleCompareRejectsPerfect(t *testing.T) {
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechPerfect
	if _, err := core.SampleCompare(cfg, core.SampleSpec{Period: 10_000, Window: 1_000}, w); err == nil {
		t.Fatal("perfect-TLB subject accepted")
	}
}

// TestPerfectWindowsIndependentOfPass: over the suite and Figure 5's
// four mechanisms, the windows of each configuration are bit-identical
// whether it runs alone over a walk of its own or in one walk that a
// benchmark's five configurations share, as the harness runs a sampled
// row: four subjects and their perfect-TLB baseline PerfectOf(cfg, 1),
// each window machine made in the one the configuration before used.
func TestPerfectWindowsIndependentOfPass(t *testing.T) {
	insts := uint64(100_000)
	if testing.Short() {
		insts = 20_000
	}
	spec := core.SampleSpec{Period: insts / 4, Warmup: insts / 40, Window: insts / 20}
	ctx := context.Background()
	for _, w := range workload.All() {
		var cfgs []core.Config
		for _, mc := range []struct {
			mech     core.Mechanism
			contexts int
		}{
			{core.MechTraditional, 1},
			{core.MechMultithreaded, 2},
			{core.MechMultithreaded, 4},
			{core.MechHardware, 1},
		} {
			cfg := core.DefaultConfig()
			cfg.Mech = mc.mech
			cfg.Contexts = mc.contexts
			cfg.MaxInsts = insts
			cfg.MaxCycles = 400 * insts
			cfgs = append(cfgs, cfg)
		}
		cfgs = append(cfgs, core.PerfectOf(cfgs[0], 1))
		shared, err := core.SampleWindows(ctx, spec, w, cfgs...)
		if err != nil {
			t.Fatalf("%s: shared walk: %v", w.Name(), err)
		}
		if len(shared[0].Windows) < 2 {
			t.Fatalf("%s: only %d windows", w.Name(), len(shared[0].Windows))
		}
		for i, cfg := range cfgs {
			alone, err := core.SampleWindows(ctx, spec, w, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name(), cfg.Mech, err)
			}
			if !reflect.DeepEqual(shared[i], alone[0]) {
				t.Errorf("%s: %s(%d) windows over the shared walk differ from their own walk's:\n%+v\n%+v",
					w.Name(), cfg.Mech, cfg.Contexts, shared[i], alone[0])
			}
		}
	}
}

// TestSampleEstimateRejectsMismatchedRuns: a subject and a baseline
// from different passes, positions or specs are not a comparison.
func TestSampleEstimateRejectsMismatchedRuns(t *testing.T) {
	spec := core.SampleSpec{Period: 10_000, Warmup: 1_000, Window: 2_000}
	run := func(total uint64, pos ...uint64) core.SampledRun {
		r := core.SampledRun{Spec: spec, TotalInsts: total}
		for _, p := range pos {
			r.Windows = append(r.Windows, core.WindowCounts{Pos: p, Insts: 2_000, Cycles: 3_000, Misses: 5})
		}
		return r
	}
	subj := run(30_000, 0, 10_000, 20_000)
	if _, err := core.SampleEstimate(subj, run(30_000, 0, 10_000, 20_000)); err != nil {
		t.Fatalf("matching runs rejected: %v", err)
	}
	other := run(30_000, 0, 10_000, 20_000)
	other.Spec.Warmup++
	for name, perf := range map[string]core.SampledRun{
		"positions":   run(30_000, 0, 10_000, 25_000),
		"windows":     run(30_000, 0, 10_000),
		"total insts": run(40_000, 0, 10_000, 20_000),
		"spec":        other,
	} {
		if _, err := core.SampleEstimate(subj, perf); err == nil {
			t.Errorf("runs with different %s accepted", name)
		}
	}
}

// TestSampleWindowsRejectsDisagreeingPass: the configurations of one
// walk must agree on what fixes the functional tier's stream.
func TestSampleWindowsRejectsDisagreeingPass(t *testing.T) {
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxInsts = 20_000
	spec := core.SampleSpec{Period: 10_000, Window: 1_000}
	longer, unaligned := cfg, cfg
	longer.MaxInsts++
	unaligned.Mech = core.MechTraditional
	unaligned.TrapUnaligned = true
	for _, other := range []core.Config{longer, unaligned} {
		if _, err := core.SampleWindows(context.Background(), spec, w, cfg, other); err == nil {
			t.Errorf("walk with MaxInsts %d/%d, TrapUnaligned %v/%v accepted",
				cfg.MaxInsts, other.MaxInsts, cfg.TrapUnaligned, other.TrapUnaligned)
		}
	}
	if _, err := core.SampleWindows(context.Background(), spec, w); err == nil {
		t.Error("walk with no configuration accepted")
	}
}

// TestWindowPastPeriodFails: under TrapUnaligned a software mechanism
// completes each unaligned load in a handler, and the load never
// retires, so a window of Warmup+Window retired instructions covers
// more of the stream than that. Generated program seed 7 has such
// loads; at a period of exactly Warmup+Window its first window runs
// into the next one's stretch and must fail, naming its position,
// while a period covering the span passes.
func TestWindowPastPeriodFails(t *testing.T) {
	p := gen.Generate(7, gen.Limits{})
	if !p.HasUnaligned() {
		t.Fatal("generated program 7 has no unaligned loads")
	}
	w, err := workload.ParseFuzz(workload.FuzzPrefix + p.Spec())
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(1 << 20); err != nil {
		t.Fatal(err)
	}
	window := eng.Steps() / 5
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechMultithreaded
	cfg.Contexts = 2
	cfg.TrapUnaligned = true
	cfg.MaxInsts = 4 * window
	for _, period := range []uint64{window, 2 * window} {
		spec := core.SampleSpec{Period: period, Warmup: window / 2, Window: window - window/2}
		_, err := core.SampleWindows(context.Background(), spec, w, cfg)
		switch {
		case period == window && (err == nil || !strings.Contains(err.Error(), "window at 0 insts covered")):
			t.Errorf("period %d: windows returned %v, want the first window to overrun its period", period, err)
		case period > window && err != nil:
			t.Errorf("period %d: %v", period, err)
		}
	}
}
