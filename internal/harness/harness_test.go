package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The harness tests verify the *shapes* the paper reports, on scaled
// runs. A fast benchmark subset keeps the suite responsive; the
// heavier TLB pressers give the clearest signal.
var fastOpt = Options{
	Insts:      150_000,
	Benchmarks: []string{"cmp", "vor", "mph"},
}

func TestTableBasics(t *testing.T) {
	tab := NewTable("T", []string{"r1", "r2"}, []string{"c1", "c2"})
	tab.Set(0, 1, 3.5)
	if tab.Get(0, 1) != 3.5 {
		t.Error("Set/Get broken")
	}
	if tab.Cell("r1", "c2") != 3.5 {
		t.Error("Cell by name broken")
	}
	if tab.Row("r2") != 1 || tab.Col("c1") != 0 {
		t.Error("name lookup broken")
	}
	if tab.Row("zzz") != -1 || tab.Col("zzz") != -1 {
		t.Error("missing name should report -1")
	}
	tab.Set(0, 0, 1)
	tab.Set(1, 0, 3)
	tab.Set(1, 1, 4.5)
	tab.AddAverageRow()
	if got := tab.Cell("average", "c1"); got != 2 {
		t.Errorf("average c1 = %v, want 2", got)
	}
	if got := tab.Cell("average", "c2"); got != 4 {
		t.Errorf("average c2 = %v, want 4", got)
	}
	out := tab.String()
	for _, want := range []string{"T", "r1", "c2", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestTableCellPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cell on unknown name did not panic")
		}
	}()
	NewTable("T", []string{"r"}, []string{"c"}).Cell("nope", "c")
}

func TestOptionsSuiteSelection(t *testing.T) {
	benches, err := Options{Benchmarks: []string{"cmp", "vortex"}}.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("selected %d benches", len(benches))
	}
	if _, err := (Options{Benchmarks: []string{"bogus"}}).suite(); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestFigure5Shape: the paper's headline ordering must hold on the
// fast subset: traditional > multithreaded(1) >= multithreaded(3) >
// hardware, and multithreaded roughly halves the traditional penalty.
func TestFigure5Shape(t *testing.T) {
	tab, err := Figure5(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	trad := tab.Cell("average", "traditional")
	m1 := tab.Cell("average", "multi(1)")
	m3 := tab.Cell("average", "multi(3)")
	hw := tab.Cell("average", "hardware")
	if !(trad > m1) {
		t.Errorf("traditional (%.1f) must exceed multi(1) (%.1f)", trad, m1)
	}
	if m3 > m1*1.05 {
		t.Errorf("multi(3) (%.1f) must not exceed multi(1) (%.1f)", m3, m1)
	}
	if !(m1 > hw) {
		t.Errorf("multi(1) (%.1f) must exceed hardware (%.1f)", m1, hw)
	}
	if ratio := trad / m1; ratio < 1.4 || ratio > 3.5 {
		t.Errorf("traditional/multi ratio %.2f outside the paper's ~2x band", ratio)
	}
}

// TestFigure2Slope: the traditional penalty must grow with pipeline
// depth, roughly linearly (the paper's slope is ~2 cycles per stage).
func TestFigure2Slope(t *testing.T) {
	tab, err := Figure2(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	p3 := tab.Cell("average", "3 stages")
	p7 := tab.Cell("average", "7 stages")
	p11 := tab.Cell("average", "11 stages")
	if !(p3 < p7 && p7 < p11) {
		t.Fatalf("penalty not increasing with depth: %.1f, %.1f, %.1f", p3, p7, p11)
	}
	slope := (p11 - p3) / 8
	if slope < 0.8 || slope > 5 {
		t.Errorf("depth slope %.2f cycles/stage outside plausible band (~2)", slope)
	}
}

// TestFigure3Trend: wider machines spend a larger fraction of time on
// TLB handling (normalized to the 2-wide machine).
func TestFigure3Trend(t *testing.T) {
	tab, err := Figure3(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	w2 := tab.Cell("average", "2w/32win")
	w8 := tab.Cell("average", "8w/128win")
	if w2 != 1.0 {
		t.Errorf("2-wide normalization = %.2f, want 1", w2)
	}
	if !(w8 > 1.1) {
		t.Errorf("8-wide relative TLB time %.2f does not grow over 2-wide", w8)
	}
}

// TestTable3Shape: removing fetch/decode latency (instant fetch) must
// be the dominant limit study, as the paper found.
func TestTable3Shape(t *testing.T) {
	tab, err := Table3(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	multi := tab.Cell("multithreaded", "penalty/miss")
	instant := tab.Cell("instant fetch", "penalty/miss")
	hw := tab.Cell("hardware", "penalty/miss")
	trad := tab.Cell("traditional", "penalty/miss")
	if !(instant < multi) {
		t.Errorf("instant fetch (%.1f) does not improve on multithreaded (%.1f)", instant, multi)
	}
	for _, name := range []string{"no exec bw", "no window", "no fetch bw"} {
		if v := tab.Cell(name, "penalty/miss"); v > multi*1.08 {
			t.Errorf("%s (%.1f) made things notably worse than multithreaded (%.1f)", name, v, multi)
		}
	}
	if !(hw < instant && instant < trad) {
		t.Errorf("bracket violated: hw %.1f, instant %.1f, traditional %.1f", hw, instant, trad)
	}
}

// TestFigure6QuickStart: quick-start improves on plain multithreaded
// handling for the fast subset average.
func TestFigure6QuickStart(t *testing.T) {
	tab, err := Figure6(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	m1 := tab.Cell("average", "multi(1)")
	qs := tab.Cell("average", "quickstart(1)")
	if !(qs < m1) {
		t.Errorf("quickstart (%.1f) does not beat multi(1) (%.1f)", qs, m1)
	}
	if m1-qs > 8 {
		t.Errorf("quickstart gain %.1f implausibly large", m1-qs)
	}
}

// TestFigure7Multiprogrammed: with three applications sharing the
// SMT, multithreaded handling still beats traditional, with a smaller
// margin than single-threaded (the paper reports ~25%).
func TestFigure7Multiprogrammed(t *testing.T) {
	opt := Options{
		Insts: 240_000,
		Mixes: [][3]string{{"cmp", "vor", "mph"}, {"adm", "cmp", "vor"}},
	}
	tab, err := Figure7(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	trad := tab.Cell("average", "traditional")
	m1 := tab.Cell("average", "multi(1)")
	if !(m1 < trad) {
		t.Errorf("multi(1) (%.1f) does not beat traditional (%.1f) multiprogrammed", m1, trad)
	}
}

// TestTable4Speedups: every alternative mechanism must speed up the
// TLB-heavy benchmarks relative to traditional, and perfect must be
// the best.
func TestTable4Speedups(t *testing.T) {
	tab, err := Table4(Options{Insts: 150_000, Benchmarks: []string{"cmp", "vor"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, row := range []string{"compress", "vortex"} {
		perfect := tab.Cell(row, "perfect%")
		for _, col := range []string{"hw%", "multi1%", "quick1%"} {
			v := tab.Cell(row, col)
			if v <= 0 {
				t.Errorf("%s %s speedup %.2f%% not positive", row, col, v)
			}
			if v > perfect+0.5 {
				t.Errorf("%s %s speedup %.2f%% exceeds perfect %.2f%%", row, col, v, perfect)
			}
		}
		if ipc := tab.Cell(row, "baseIPC"); ipc < 1 || ipc > 8 {
			t.Errorf("%s base IPC %.2f implausible", row, ipc)
		}
	}
}

// TestTable2Summary reports the suite summary and sanity-checks the
// scaled miss counts against Table 2's ordering (compress heaviest).
func TestTable2Summary(t *testing.T) {
	tab, err := Table2(Options{Insts: 150_000, Benchmarks: []string{"cmp", "gcc"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	if !(tab.Cell("compress", "misses/100M") > tab.Cell("gcc", "misses/100M")) {
		t.Error("compress must out-miss gcc")
	}
}

// TestAblations: the Section 4 design-choice ablations run and the
// longer handler costs more.
func TestAblations(t *testing.T) {
	tab, err := Ablations(Options{Insts: 150_000, Benchmarks: []string{"cmp", "vor"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	base := tab.Cell("baseline multi(1)", "penalty/miss")
	long := tab.Cell("long handler (+12 insts)", "penalty/miss")
	if !(long > base) {
		t.Errorf("longer handler (%.1f) not costlier than baseline (%.1f)", long, base)
	}
	// The per-miss metric must isolate the mechanism: changing the
	// branch predictor moves absolute performance but not the
	// penalty per miss (each subject is differenced against a
	// baseline sharing its full configuration).
	for _, row := range []string{"gshare predictor", "bimodal predictor"} {
		v := tab.Cell(row, "penalty/miss")
		if v < base*0.5 || v > base*2 {
			t.Errorf("%s penalty %.1f implausibly far from baseline %.1f — baseline mismatch?", row, v, base)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("T", []string{"a", "b"}, []string{"x", "y"})
	tab.Set(0, 0, 1.5)
	tab.Set(1, 1, -2)
	csv := tab.CSV()
	want := "name,x,y\na,1.5,0\nb,0,-2\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

// TestTableJSONRowsNonFinite: encoding/json rejects +Inf, which a
// sampled CI reads below two windows, so such a cell is listed by
// column beside the FAIL cells instead of breaking the stream.
func TestTableJSONRowsNonFinite(t *testing.T) {
	tab := NewTable("T", []string{"a"}, []string{"x", "y", "z"})
	tab.Set(0, 0, 1.5)
	tab.Set(0, 1, math.Inf(1))
	tab.MarkFailed(0, 2)
	var buf bytes.Buffer
	if err := tab.WriteJSONRows(&buf); err != nil {
		t.Fatalf("WriteJSONRows: %v", err)
	}
	want := `{"table":"T","row":"a","cells":{"x":1.5},"failed":["z"],"nonfinite":{"y":"+Inf"}}` + "\n"
	if buf.String() != want {
		t.Errorf("JSON rows = %q, want %q", buf.String(), want)
	}
}
