package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/faultinject"
	"mtexc/internal/workload"
)

// A failure injected into one cell must cost exactly that cell: the
// siblings complete, the table renders the dead cell as FAIL, and the
// error carries enough context to reproduce the failing simulation.
func TestInjectedFailureIsolatedToCell(t *testing.T) {
	t.Setenv(FailCellEnv, "Figure5:2")
	opt := Options{Insts: 30_000, Benchmarks: []string{"cmp", "vor"}, Parallelism: 4}
	tab, err := Figure5(opt)
	if tab == nil {
		t.Fatal("no partial table returned alongside the failure")
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("Figure5 returned %v, want *ExperimentError", err)
	}
	if len(ee.Cells) != 1 || ee.Cells[0].Index != 2 {
		t.Fatalf("failed cells = %+v, want exactly cell 2", ee.Cells)
	}
	ce := ee.Cells[0]
	// Cell 2 of a 2-bench × 4-config grid is (cmp, multi(3)).
	if !tab.FailedAt(0, 2) {
		t.Error("table cell (0,2) not marked FAIL")
	}
	if !strings.Contains(tab.String(), "FAIL") {
		t.Errorf("text rendering lacks a FAIL marker:\n%s", tab)
	}
	if !strings.Contains(tab.CSV(), "FAIL") {
		t.Error("CSV rendering lacks a FAIL marker")
	}
	// The average row inherits the poisoned column.
	if !tab.FailedAt(tab.Row("average"), 2) {
		t.Error("average row not poisoned by the failed contributor")
	}
	// Every other cell completed with a real value.
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if r == 0 && c == 2 {
				continue
			}
			if tab.FailedAt(r, c) {
				t.Errorf("sibling cell (%d,%d) also failed", r, c)
			}
		}
	}
	// The failure report reproduces the cell: configuration captured,
	// repro command runnable.
	if ce.Config == nil {
		t.Fatal("cell error lost its configuration")
	}
	repro := ce.Repro()
	for _, want := range []string{"mtexcsim", "-bench cmp", "-mech multithreaded", "-idle 3"} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro %q missing %q", repro, want)
		}
	}
	if ce.Fingerprint == "" {
		t.Error("cell error lost its journal fingerprint")
	}
}

// Every experiment runs its cells in one pass, so an injected index
// names exactly one cell: that cell's subject fails — never a
// perfect-TLB baseline a second pass numbered the same — and the table
// marks only that cell's coordinates FAIL, plus the average row's
// entry in its column where the table has one.
func TestInjectedFailureNamesOneCell(t *testing.T) {
	sampled := func(opt Options) (*Table, error) {
		s, err := Figure5Sampled(opt, testSpec)
		return s.Est, err
	}
	for _, tc := range []struct {
		spec     string
		run      func(Options) (*Table, error)
		row, col string
	}{
		{"Table4:1", Table4, "compress", "hw%"},
		{"Generalized:1", Generalized, "multithreaded(1)", "1/48 insts"},
		{"Unaligned:1", Unaligned, "multithreaded(1)", "1/32 insts"},
		{"Figure5Sampled:1", sampled, "compress", "multi(1)"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			t.Setenv(FailCellEnv, tc.spec)
			tab, err := tc.run(Options{Insts: 20_000, Benchmarks: []string{"cmp", "vor"}, Parallelism: 2})
			var ee *ExperimentError
			if !errors.As(err, &ee) {
				t.Fatalf("err = %v, want *ExperimentError", err)
			}
			if len(ee.Cells) != 1 || ee.Cells[0].Index != 1 {
				t.Fatalf("failed cells = %v, want exactly cell 1", ee.Cells)
			}
			if cfg := ee.Cells[0].Config; cfg == nil || cfg.Mech == core.MechPerfect {
				t.Errorf("cell 1 reports config %+v, want its subject's", cfg)
			}
			for r, row := range tab.Rows {
				for c, col := range tab.Cols {
					want := (row == tc.row || row == "average") && col == tc.col
					if got := tab.FailedAt(r, c); got != want {
						t.Errorf("(%s, %s) marked FAIL = %v, want %v", row, col, got, want)
					}
				}
			}
		})
	}
}

// modeRun renders one experiment as text, for byte comparisons and
// failure checks: the exact path plus each of the other run modes
// that go through the same cell executor.
type modeRun struct {
	name  string
	cells int
	run   func(Options) (string, error)
}

var testSpec = core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}

var modeRuns = []modeRun{
	{"Figure5", 8, func(opt Options) (string, error) {
		opt.Insts = 30_000
		opt.Benchmarks = []string{"cmp", "vor"}
		t, err := Figure5(opt)
		return t.String(), err
	}},
	{"SharedL2", 20, func(opt Options) (string, error) {
		opt.Insts = 20_000
		t, err := SharedL2(opt)
		return t.String(), err
	}},
	{"Figure5Sampled", 4, func(opt Options) (string, error) {
		opt.Insts = 120_000
		opt.Benchmarks = []string{"mph"}
		s, err := Figure5Sampled(opt, testSpec)
		return s.Est.String() + s.CI.String(), err
	}},
}

// A journaled suite must resume to byte-identical tables in every run
// mode: a full run, a run resumed from a truncated (killed) journal,
// and a resume of the complete journal all render the same bytes — the
// last without simulating anything.
func TestResumeByteIdentical(t *testing.T) {
	for _, m := range modeRuns {
		path := filepath.Join(t.TempDir(), "journal.ndjson")
		run := func(resume bool) (string, *Journal) {
			t.Helper()
			j, err := OpenJournal(path, resume)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.run(Options{Parallelism: 4, Journal: j})
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			return out, j
		}

		want, j0 := run(false)
		if j0.Appends() == 0 {
			t.Fatalf("%s: fresh run journaled nothing", m.name)
		}

		// Simulate a mid-suite kill: keep the first three journal lines
		// and a torn fragment of the fourth.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines) < 5 {
			t.Fatalf("%s: journal has only %d lines", m.name, len(lines))
		}
		kept := bytes.Join(lines[:3], nil)
		kept = append(kept, lines[3][:len(lines[3])/2]...) // torn line, no newline
		if err := os.WriteFile(path, kept, 0o644); err != nil {
			t.Fatal(err)
		}

		resumed, j1 := run(true)
		if resumed != want {
			t.Errorf("%s: resumed table differs from the full run:\n--- full ---\n%s\n--- resumed ---\n%s", m.name, want, resumed)
		}
		if j1.Hits() == 0 {
			t.Errorf("%s: resume simulated every cell; journal entries not reused", m.name)
		}
		if j1.Appends() == 0 {
			t.Errorf("%s: resume of a truncated journal appended nothing", m.name)
		}

		// The journal is now complete: one more resume runs zero
		// simulations and still renders the same bytes.
		again, j2 := run(true)
		if again != want {
			t.Errorf("%s: fully-journaled resume differs:\n%s", m.name, again)
		}
		if n := j2.Appends(); n != 0 {
			t.Errorf("%s: fully-journaled resume still simulated %d runs", m.name, n)
		}
	}
}

// A per-cell deadline, or an already-cancelled context, must turn
// every overrunning simulation — in every run mode — into an ordinary
// failed cell with a *cpu.CancelledError carrying the context's error.
func TestCellTimeoutFailsCell(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range modeRuns {
		for _, tc := range []struct {
			opt  Options
			want error
		}{
			{Options{Parallelism: 2, CellTimeout: time.Microsecond}, context.DeadlineExceeded},
			{Options{Parallelism: 2, Context: cancelled}, context.Canceled},
		} {
			_, err := m.run(tc.opt)
			var ee *ExperimentError
			if !errors.As(err, &ee) || len(ee.Cells) != m.cells {
				t.Fatalf("%s (%v): err = %v, want all %d cells failed", m.name, tc.want, err, m.cells)
			}
			for _, ce := range ee.Cells {
				var cerr *cpu.CancelledError
				if !errors.As(ce.Cause, &cerr) || !errors.Is(ce.Cause, tc.want) {
					t.Errorf("%s cell %d: cause %v, want *cpu.CancelledError wrapping %v", m.name, ce.Index, ce.Cause, tc.want)
				}
			}
		}
	}
}

// A journal written before run keys carried image hashes and a model
// version must answer nothing: testdata/journal_v0_fig5_cmp.ndjson is
// "mtexc-experiments -fig5 -bench cmp -insts 20000" from that
// simulator (four subjects, three baselines). Resuming it re-simulates
// every run of the grid and renders the table a fresh run renders.
func TestResumeOldJournal(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "journal_v0_fig5_cmp.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := j.Len(); n != 7 {
		t.Fatalf("old journal loaded %d entries, want 7", n)
	}
	opt := Options{Insts: 20_000, Benchmarks: []string{"cmp"}, Parallelism: 2}
	fresh, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	resumed, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Hits(); n != 0 {
		t.Errorf("%d simulations answered from the old journal, want 0", n)
	}
	// Four subjects and the one baseline they share.
	if n := j.Appends(); n != 5 {
		t.Errorf("resume simulated %d runs, want 5", n)
	}
	if resumed.String() != fresh.String() {
		t.Errorf("resumed table differs from a fresh run:\n--- resumed ---\n%s\n--- fresh ---\n%s", resumed, fresh)
	}
}

// A journal holding sampled estimates under the sample/ prefix, from
// before sampled cells journaled per-window counts, must answer
// nothing: testdata/journal_v1_fig5sampled_cmp.ndjson is
// "mtexc-experiments -fig5sampled -bench cmp -insts 100000 -sample
// 20000:2000:3000" from that simulator (four estimates). Read as
// window records, its entries lack every window counter and fail the
// decode, rather than giving an all-zero estimate; resumed, the grid
// re-simulates and renders the table a fresh run renders.
func TestResumeOldSampledJournal(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "journal_v1_fig5sampled_cmp.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := j.Len(); n != 4 {
		t.Fatalf("old journal loaded %d entries, want 4", n)
	}
	spec := core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	for _, line := range bytes.Split(bytes.TrimSpace(old), []byte("\n")) {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		res, _ := j.lookup(e.Key)
		if _, err := windowsFromResult(res, spec); err == nil {
			t.Errorf("old estimate %s decoded as a window record", e.Key)
		}
	}
	hits := j.Hits()
	opt := Options{Insts: 100_000, Benchmarks: []string{"cmp"}, Parallelism: 2}
	fresh, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	resumed, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Hits() - hits; n != 0 {
		t.Errorf("%d simulations answered from the old journal, want 0", n)
	}
	// Four subjects and the one baseline they share.
	if n := j.Appends(); n != 5 {
		t.Errorf("resume simulated %d runs, want 5", n)
	}
	want := fresh.Est.String() + fresh.CI.String()
	if got := resumed.Est.String() + resumed.CI.String(); got != want {
		t.Errorf("resumed tables differ from a fresh run:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// A panic inside a shared baseline must fail every cell that consumes
// that baseline — with the panic preserved as the cause — rather than
// silently handing waiters a zero value (sync.Once marks itself done
// even when f panics, so without the recover the second caller would
// see a zero value and a nil error). The journal's run store and the
// fault campaign's reference-run and baseline caches are all one
// singleflight type; each value type is checked.
func TestBaselinePanicPropagates(t *testing.T) {
	checkFlightPanic(t, &(&Journal{}).runs)
	checkFlightPanic(t, &flight[*diffsim.RefRun]{})
	checkFlightPanic(t, &flight[*faultinject.Baseline]{})

	// Through compare: both cells sharing the panicking baseline fail
	// with its panic, and the store runs it once.
	r := newRunner(Options{}, "TestBaselinePanicPropagates")
	cmp, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	baseRuns := 0
	sim := func(_ context.Context, j job, _ *core.Probe) (core.Result, uint64, error) {
		if j.cfg.Mech == core.MechPerfect {
			baseRuns++
			panic("baseline blew up")
		}
		return core.Result{Cycles: 150, DTLBMisses: 10}, 0, nil
	}
	for i, mech := range []core.Mechanism{core.MechTraditional, core.MechHardware} {
		j := job{cfg: r.baseConfig(mech, 1, 0), loads: []core.Workload{cmp}, sim: sim}
		_, err := r.compare(&cell{index: i, exp: r.exp}, j)
		var pe *panicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "baseline blew up") {
			t.Errorf("cell %d: err = %v, want the baseline's panic", i, err)
		}
	}
	if baseRuns != 1 {
		t.Errorf("panicking baseline ran %d times, want 1", baseRuns)
	}
}

func checkFlightPanic[V any](t *testing.T, f *flight[V]) {
	t.Helper()
	for i := 0; i < 2; i++ {
		v, err := f.get("k", func() (V, error) {
			panic("baseline blew up")
		})
		var pe *panicError
		if !errors.As(err, &pe) {
			t.Fatalf("%T caller %d: err = %v, want *panicError", v, i, err)
		}
		if !strings.Contains(err.Error(), "baseline blew up") {
			t.Errorf("%T caller %d lost the panic value: %v", v, i, err)
		}
		if !reflect.ValueOf(&v).Elem().IsZero() {
			t.Errorf("%T caller %d got a partial value %+v with an error", v, i, v)
		}
	}
	if f.Runs() != 1 {
		t.Errorf("panicking %T computation ran %d times, want 1 (still single-flighted)", *new(V), f.Runs())
	}
}
