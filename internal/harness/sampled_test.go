package harness

import (
	"math"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// TestFigure5SampledDeterministic: sampled tables are byte-identical
// at any parallelism, like every other experiment.
func TestFigure5SampledDeterministic(t *testing.T) {
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}}

	opt.Parallelism = 1
	serial, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	parallel, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Est.String() != parallel.Est.String() {
		t.Fatalf("estimate tables differ across parallelism:\n%s\nvs\n%s",
			serial.Est.String(), parallel.Est.String())
	}
	if serial.CI.String() != parallel.CI.String() {
		t.Fatalf("CI tables differ across parallelism")
	}
	if serial.TotalInsts != parallel.TotalInsts || serial.DetailedInsts != parallel.DetailedInsts {
		t.Fatalf("cost accounting differs across parallelism")
	}
	// Four cells, 120k functional insts each.
	if want := uint64(4 * 120_000); serial.TotalInsts != want {
		t.Fatalf("TotalInsts = %d, want %d", serial.TotalInsts, want)
	}
	if serial.DetailedInsts == 0 || serial.DetailedInsts >= 2*serial.TotalInsts {
		t.Fatalf("DetailedInsts = %d out of range (total %d)", serial.DetailedInsts, serial.TotalInsts)
	}
	// The mechanism ordering the paper reports must survive sampling.
	tr := serial.Est.Cell("murphi", "traditional")
	hw := serial.Est.Cell("murphi", "hardware")
	if !(tr > hw) {
		t.Errorf("sampled estimates lost the traditional > hardware ordering: trad=%.2f hw=%.2f", tr, hw)
	}
}

// TestFigure5SampledMatchesSampleCompare: a Figure5Sampled cell pairs
// its subject with the perfect-TLB windows its benchmark's cells
// share, from a functional pass of their own, and still equals
// core.SampleCompare, which runs both in one pass, bit for bit.
func TestFigure5SampledMatchesSampleCompare(t *testing.T) {
	spec := core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	opt := Options{Insts: 50_000, Parallelism: 4}
	s, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(opt, "TestFigure5SampledMatchesSampleCompare")
	var total, detailed uint64
	for _, b := range workload.All() {
		for _, m := range r.fig5Mechs() {
			want, err := core.SampleCompare(m.cfg, spec, b)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name(), m.name, err)
			}
			est, ci := s.Est.Cell(b.Name(), m.name), s.CI.Cell(b.Name(), m.name)
			if math.Float64bits(est) != math.Float64bits(want.PenaltyPerMiss) ||
				math.Float64bits(ci) != math.Float64bits(want.CI95) {
				t.Errorf("%s %s: Figure5Sampled %v±%v, SampleCompare %v±%v",
					b.Name(), m.name, est, ci, want.PenaltyPerMiss, want.CI95)
			}
			total += want.TotalInsts
			detailed += want.DetailedInsts
		}
	}
	if s.TotalInsts != total || s.DetailedInsts != detailed {
		t.Errorf("Figure5Sampled counts %d total, %d detailed insts; SampleCompare %d, %d",
			s.TotalInsts, s.DetailedInsts, total, detailed)
	}
}

// TestSampledRowRunsOnePass: the four cells of cmp's row and their
// shared perfect-TLB baseline take their windows from one functional
// pass. Every simulation reports its detailed instructions to the
// telemetry plane, and the one that ran the pass the pass's too, so
// what the five finished simulations report, less the detailed
// instructions their journaled windows count, is the pass count times
// the budget.
func TestSampledRowRunsOnePass(t *testing.T) {
	spec := core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	j := &Journal{}
	plane := telemetry.NewPlane()
	opt := Options{Insts: 60_000, Benchmarks: []string{"cmp"}, Parallelism: 2, Journal: j, Telemetry: plane}
	if _, err := Figure5Sampled(opt, spec); err != nil {
		t.Fatal(err)
	}
	if n := j.runs.Runs(); n != 5 {
		t.Fatalf("journal ran %d simulations, want four subjects and a baseline", n)
	}
	var detailed uint64
	for _, e := range j.runs.m {
		run, err := windowsFromResult(e.val, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range run.Windows {
			detailed += w.WarmInsts + w.Insts
		}
	}
	var b strings.Builder
	if err := plane.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	reported, err := scrapeValue(b.String(), "mtexc_sim_insts_finished_total")
	if err != nil {
		t.Fatal(err)
	}
	functional := uint64(reported) - detailed
	if functional != opt.Insts {
		t.Errorf("cmp's row reported %d functional instructions, %.2f passes of %d; want one pass",
			functional, float64(functional)/float64(opt.Insts), opt.Insts)
	}
}
