package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// The golden files lock the experiment suite across refactors: the
// resume-journal fingerprints (pure functions of Config + workload
// identity) and the rendered JSON rows of representative tables must
// come out byte-identical from every commit. Regenerate deliberately
// with
//
//	go test ./internal/harness -run TestGolden -update-golden
//
// and treat any diff as a breaking change to journal compatibility.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fingerprint/table files")

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenRunKeys locks the resume-journal fingerprints. A key is
// sha256 over the formatted Config plus the canonical workload keys,
// so it drifts exactly when (a) Config gains, loses, reorders or
// renames a field, (b) DefaultConfig changes a value, or (c) a
// workload's identity string changes — each of which silently
// invalidates every journal in the field. The grid below touches
// every Config field the experiment suite mutates.
func TestGoldenRunKeys(t *testing.T) {
	r := newRunner(Options{Insts: 1_000_000}, "golden")
	var buf bytes.Buffer
	line := func(name string, j job) {
		fmt.Fprintf(&buf, "%-32s %s\n", name, j.key())
	}
	add := func(name string, cfg core.Config, loads ...core.Workload) {
		line(name, exactJob(cfg, loads...))
	}

	pick := func(name string) *workload.Bench {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cmp, vor, mph := pick("cmp"), pick("vortex"), pick("mph")

	// The formatted default configuration itself, so a field-level
	// diff names the culprit instead of just flipping hashes.
	fmt.Fprintf(&buf, "DefaultConfig %+v\n", core.DefaultConfig())
	for _, b := range workload.All() {
		fmt.Fprintf(&buf, "workload %s %s\n", b.Short(), b.Key())
		fmt.Fprintf(&buf, "workload %s-2lpt %s\n", b.Short(), b.WithTwoLevelPT().Key())
	}

	// Figure 5 / Table 4 mechanism grid and its perfect baseline.
	add("fig5.traditional", r.baseConfig(core.MechTraditional, 1, 0), cmp)
	add("fig5.multi1", r.baseConfig(core.MechMultithreaded, 1, 1), cmp)
	add("fig5.multi3", r.baseConfig(core.MechMultithreaded, 1, 3), cmp)
	add("fig5.hardware", r.baseConfig(core.MechHardware, 1, 0), cmp)
	add("fig5.perfect", r.baseConfig(core.MechPerfect, 1, 0), cmp)

	// Figure 2 pipeline depths, Figure 3 machine widths.
	for _, d := range []int{3, 7, 11} {
		add(fmt.Sprintf("fig2.depth%d", d), r.baseConfig(core.MechTraditional, 1, 0).WithPipeDepth(d), vor)
	}
	for _, s := range []struct{ width, window int }{{2, 32}, {4, 64}, {8, 128}, {16, 256}} {
		add(fmt.Sprintf("fig3.width%d", s.width), r.baseConfig(core.MechTraditional, 1, 0).WithWidth(s.width, s.window), vor)
	}

	// Table 3 limit studies.
	for _, l := range []core.LimitStudy{core.LimitNone, core.LimitNoExecBW, core.LimitNoWindow, core.LimitNoFetchBW, core.LimitInstantFetch} {
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		cfg.Limit = l
		add(fmt.Sprintf("table3.limit%d", l), cfg, cmp)
	}

	// Figure 6 quick-start, Figure 7 multiprogrammed mix.
	quick := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick.QuickStart = true
	add("fig6.quickstart", quick, cmp)
	add("fig7.mix", r.baseConfig(core.MechMultithreaded, 3, 1), cmp, vor, mph)

	// Section 6 generalized mechanisms.
	popc := r.baseConfig(core.MechMultithreaded, 1, 1)
	popc.EmulatePopc = true
	add("general.popc", popc, cmp)
	unal := r.baseConfig(core.MechTraditional, 1, 0)
	unal.TrapUnaligned = true
	add("general.unaligned", unal, cmp)

	// Sensitivity studies: TLB sizes and page-table organization.
	for _, sz := range []int{32, 64, 128} {
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		cfg.DTLBEntries = sz
		add(fmt.Sprintf("tlbsweep.%d", sz), cfg, mph)
	}
	two := r.baseConfig(core.MechTraditional, 1, 0)
	two.PageTable = vm.PTTwoLevel
	add("ptorg.twolevel", two, cmp.WithTwoLevelPT())

	// The other run modes, each under its mode prefix: a shared-L2
	// cluster (mph measured, one cmp co-runner — a fresh cmp, since the
	// ptorg line switched the one above to a two-level table) and a
	// sampled comparison.
	line("sharedl2.2c", clusterJob(r.baseConfig(core.MechMultithreaded, 1, 1), []core.Workload{mph, pick("cmp")}))
	spec := core.SampleSpec{Period: 100_000, Warmup: 10_000, Window: 10_000}
	line("sampled.multi1", job{cfg: r.baseConfig(core.MechMultithreaded, 1, 1),
		loads: []core.Workload{mph}, sample: &spec})

	compareGolden(t, "golden_runkeys.txt", buf.Bytes())
}

// TestGoldenTables locks the rendered output of representative
// experiment tables — cycle-level behavioral drift in the core shows
// up here as a numeric diff even when the fingerprints are stable.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tables simulate a few hundred thousand instructions")
	}
	opt := Options{Insts: 50_000, Benchmarks: []string{"cmp", "vor"}}
	for _, exp := range []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"golden_fig5.json", Figure5},
		{"golden_table3.json", Table3},
		{"golden_fig6.json", Figure6},
		{"golden_table4.json", Table4},
		{"golden_generalized.json", Generalized},
		{"golden_unaligned.json", Unaligned},
		{"golden_sharedl2.json", SharedL2},
		{"golden_ablations.json", Ablations},
	} {
		tab, err := exp.run(opt)
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		var buf bytes.Buffer
		if err := tab.WriteJSONRows(&buf); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, exp.name, buf.Bytes())
	}

	// Sampled Figure 5: three windows per cell at this budget, so the
	// CI rows are finite.
	s, err := Figure5Sampled(opt, core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000})
	if err != nil {
		t.Fatalf("golden_fig5sampled.json: %v", err)
	}
	var buf bytes.Buffer
	for _, tab := range []*Table{s.Est, s.CI} {
		if err := tab.WriteJSONRows(&buf); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "golden_fig5sampled.json", buf.Bytes())
}
