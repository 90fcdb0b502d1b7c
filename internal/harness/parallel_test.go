package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/workload"
)

// The parallel harness must be a pure scheduling change: the same
// cells run, land in the same table slots, and every baseline is the
// same simulation — so serial and parallel tables render identically,
// byte for byte.
func TestParallelMatchesSerial(t *testing.T) {
	base := Options{Insts: 40_000, Benchmarks: []string{"cmp", "vor"}}
	experiments := []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"Figure5", Figure5},
		{"Table3", Table3},
	}
	for _, exp := range experiments {
		t.Run(exp.name, func(t *testing.T) {
			serial := base
			serial.Parallelism = 1
			par := base
			par.Parallelism = 8

			ts, err := exp.run(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			tp, err := exp.run(par)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if ts.String() != tp.String() {
				t.Errorf("serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel(8) ---\n%s", ts, tp)
			}
		})
	}
}

// One journal runs each perfect-TLB machine shape once, no matter how
// many cells (or repeat experiments) ask for it concurrently, and
// every other run once too: an experiment reads the runs an earlier
// one on the journal simulated, with or without a file.
func TestBaselineStoreSingleflight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opt := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp"},
		Parallelism: 8,
		Journal:     j,
	}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	// Figure 5's four mechanisms differ only in the mechanism and the
	// idle contexts, which the perfect baseline drops: every column
	// shares one baseline.
	if got := perfectRuns(t, path); got != 1 {
		t.Errorf("baseline simulations = %d, want 1 (one per workload)", got)
	}
	before := j.runs.Runs()
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	if got := j.runs.Runs(); got != before {
		t.Errorf("re-running Figure 5 added %d simulations, want 0", got-before)
	}

	// Sampled Figure 5 pairs its cells the same way: one set of
	// perfect-TLB windows for cmp's four cells.
	if _, err := Figure5Sampled(opt, testSpec); err != nil {
		t.Fatal(err)
	}
	if got := perfectRuns(t, path) - 1; got != 1 {
		t.Errorf("sampled baseline simulations = %d, want 1 (one per workload)", got)
	}
	before = j.runs.Runs()
	if _, err := Figure5Sampled(opt, testSpec); err != nil {
		t.Fatal(err)
	}
	if got := j.runs.Runs(); got != before {
		t.Errorf("re-running sampled Figure 5 added %d simulations, want 0", got-before)
	}

	// core.PerfectOf resets what a perfect machine never reads: of the
	// ablations' ten rows only the default, retire width 8, gshare and
	// bimodal differ in a baseline, and the TLB sweep's three sizes
	// share one.
	for _, exp := range []struct {
		name string
		run  func(Options) (*Table, error)
		want int
	}{{"Ablations", Ablations, 4}, {"TLBSweep", TLBSweep, 1}} {
		own := opt
		ownPath := filepath.Join(t.TempDir(), exp.name+".ndjson")
		if own.Journal, err = OpenJournal(ownPath, false); err != nil {
			t.Fatal(err)
		}
		if _, err := exp.run(own); err != nil {
			t.Fatal(err)
		}
		own.Journal.Close()
		if got := perfectRuns(t, ownPath); got != exp.want {
			t.Errorf("%s: baseline simulations = %d, want %d", exp.name, got, exp.want)
		}
	}

	// Table 3's traditional, multithreaded and hardware rows repeat
	// Figure 5's columns, subjects and baseline alike, so over one
	// journal with no file it simulates only its four limit studies
	// per benchmark.
	two := Options{Insts: 30_000, Benchmarks: []string{"cmp", "vor"}, Parallelism: 8, Journal: &Journal{}}
	if _, err := Figure5(two); err != nil {
		t.Fatal(err)
	}
	before = two.Journal.runs.Runs()
	if _, err := Table3(two); err != nil {
		t.Fatal(err)
	}
	if got := two.Journal.runs.Runs() - before; got != 8 {
		t.Errorf("Table 3 after Figure 5 simulated %d runs, want 8 (four limit studies per benchmark)", got)
	}
}

// perfectRuns counts the perfect-TLB runs the journal at path
// recorded.
func perfectRuns(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.Meta.Mechanism == core.MechPerfect.String() {
			n++
		}
	}
	return n
}

// The first cell to ask for a baseline runs it before its subject; a
// cell whose baseline is already claimed runs its subject meanwhile.
// Cell A claims the baseline both cells share, and its simulation
// blocks: A must not have started its subject, and cell B must finish
// its own subject while A's baseline is still blocked.
func TestBaselineClaimOrder(t *testing.T) {
	r := newRunner(Options{}, "TestBaselineClaimOrder")
	cmp, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	baseStarted := make(chan struct{})
	release := make(chan struct{})
	// Unblock the baseline on every exit, so no cell goroutine
	// outlives a failed test.
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	subjects := make(chan core.Mechanism, 2) // one send per subject
	sim := func(_ context.Context, j job, _ *core.Probe) (core.Result, uint64, error) {
		if j.cfg.Mech == core.MechPerfect {
			close(baseStarted) // a second baseline run panics here
			<-release
			return core.Result{Cycles: 100}, 0, nil
		}
		subjects <- j.cfg.Mech
		return core.Result{Cycles: 150, DTLBMisses: 10}, 0, nil
	}
	type outcome struct {
		cmp core.Comparison
		err error
	}
	start := func(index int, mech core.Mechanism, idle int) <-chan outcome {
		j := job{cfg: r.baseConfig(mech, 1, idle), loads: []core.Workload{cmp}, sim: sim}
		out := make(chan outcome, 1)
		go func() {
			res, err := r.compare(&cell{index: index, exp: r.exp}, j)
			out <- outcome{res, err}
		}()
		return out
	}
	const wait = 30 * time.Second

	a := start(0, core.MechTraditional, 0)
	select {
	case <-baseStarted:
	case m := <-subjects:
		t.Fatalf("cell A ran its %s subject before the baseline it claimed", m)
	case <-time.After(wait):
		t.Fatal("cell A never started the baseline")
	}
	b := start(1, core.MechMultithreaded, 1)
	select {
	case m := <-subjects:
		if m != core.MechMultithreaded {
			t.Fatalf("cell A ran its %s subject while its baseline was blocked", m)
		}
	case <-time.After(wait):
		t.Fatal("cell B did not run its subject while the baseline it shares was blocked")
	}
	close(release)
	for name, out := range map[string]<-chan outcome{"A": a, "B": b} {
		select {
		case o := <-out:
			if o.err != nil || o.cmp.Subject.Cycles != 150 || o.cmp.Perfect.Cycles != 100 {
				t.Errorf("cell %s: comparison %+v, err %v", name, o.cmp, o.err)
			}
		case <-time.After(wait):
			t.Fatalf("cell %s never finished", name)
		}
	}
	if m := <-subjects; m != core.MechTraditional {
		t.Errorf("cell A's subject ran as %s", m)
	}
	if got := r.opt.Journal.runs.Runs(); got != 3 {
		t.Errorf("simulations = %d, want 3 (two subjects and the baseline they share)", got)
	}
}

// forEach must visit every index exactly once, keep running every
// cell when some fail, and aggregate the failures in index order.
func TestForEach(t *testing.T) {
	r := newRunner(Options{Parallelism: 4}, "TestForEach")
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := r.forEach(64, func(c *cell) error {
		mu.Lock()
		seen[c.index]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 64 {
		t.Errorf("visited %d indices, want 64", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("index %d visited %d times", i, n)
		}
	}

	// Failures must not stop the other cells: all 16 run, and every
	// failing index is reported, in order.
	ran := make(map[int]bool)
	err := r.forEach(16, func(c *cell) error {
		mu.Lock()
		ran[c.index] = true
		mu.Unlock()
		if c.index >= 3 {
			return fmt.Errorf("cell %d failed", c.index)
		}
		return nil
	})
	if len(ran) != 16 {
		t.Errorf("only %d of 16 cells ran; failures must not cancel siblings", len(ran))
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("forEach returned %v, want *ExperimentError", err)
	}
	if len(ee.Cells) != 13 {
		t.Errorf("aggregated %d cell errors, want 13", len(ee.Cells))
	}
	for i, ce := range ee.Cells {
		if ce.Index != i+3 {
			t.Errorf("cell error %d has index %d, want %d (index order)", i, ce.Index, i+3)
		}
		if ce.Experiment != "TestForEach" {
			t.Errorf("cell error carries experiment %q", ce.Experiment)
		}
	}

	// A panicking cell is contained the same way, with the stack
	// captured.
	err = r.forEach(8, func(c *cell) error {
		if c.index == 5 {
			panic("synthetic cell panic")
		}
		return nil
	})
	if !errors.As(err, &ee) || len(ee.Cells) != 1 {
		t.Fatalf("panic not contained as a single cell error: %v", err)
	}
	if ee.Cells[0].Index != 5 || len(ee.Cells[0].Stack) == 0 {
		t.Errorf("panic cell error lost its index or stack: %+v", ee.Cells[0])
	}
	if !strings.Contains(ee.Cells[0].Cause.Error(), "synthetic cell panic") {
		t.Errorf("panic value lost: %v", ee.Cells[0].Cause)
	}
}

// Progress lines from concurrent completions must never interleave
// mid-line: each write delivers one or more complete lines.
func TestProgressLinesNotTorn(t *testing.T) {
	var buf lineCheckWriter
	opt := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp", "vor"},
		Parallelism: 8,
		Progress:    &buf,
	}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	if buf.writes == 0 {
		t.Fatal("no progress output")
	}
	if buf.torn > 0 {
		t.Errorf("%d of %d progress writes did not end at a line boundary", buf.torn, buf.writes)
	}
}

// lineCheckWriter counts writes that do not end with a newline —
// partial lines a concurrent writer could tear.
type lineCheckWriter struct {
	mu     sync.Mutex
	writes int
	torn   int
}

func (w *lineCheckWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if !bytes.HasSuffix(p, []byte("\n")) {
		w.torn++
	}
	return len(p), nil
}
