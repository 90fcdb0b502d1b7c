package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/faultinject"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// smallCampaign is the test grid: small enough to run in seconds,
// wide enough to exercise two classes, two mechanisms and the
// worker pool.
func smallCampaign() FaultCampaign {
	return FaultCampaign{
		Seed:   1,
		Trials: 2,
		Classes: []cpu.FaultClass{
			cpu.FaultArchReg, cpu.FaultTLB,
		},
		Mechs: []faultinject.MechCase{
			mustMech("trad"), mustMech("multi1"),
		},
		Specs: workload.FaultInjectionSuite()[:1],
	}
}

func mustMech(name string) faultinject.MechCase {
	mc, err := faultinject.MechByName(name)
	if err != nil {
		panic(err)
	}
	return mc
}

func campaignText(t *testing.T, opt Options, fc FaultCampaign) string {
	t.Helper()
	rep, err := RunFaultCampaign(opt, fc)
	if err != nil {
		t.Fatalf("RunFaultCampaign: %v", err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	return buf.String()
}

// TestFaultCampaignParallelismIndependence: the rendered report is
// byte-identical at any worker count.
func TestFaultCampaignParallelismIndependence(t *testing.T) {
	serial := campaignText(t, Options{Parallelism: 1}, smallCampaign())
	parallel := campaignText(t, Options{Parallelism: 4}, smallCampaign())
	if serial != parallel {
		t.Errorf("report differs between -parallel 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "Outcome histogram") {
		t.Errorf("report missing histogram section:\n%s", serial)
	}
}

// TestFaultCampaignJournalResume: a resumed campaign answers every
// cell from the journal — zero new appends — and renders the
// byte-identical report.
func TestFaultCampaignJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fi.journal")

	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first := campaignText(t, Options{Parallelism: 2, Journal: j1}, smallCampaign())
	if j1.Appends() == 0 {
		t.Fatal("first campaign journaled nothing")
	}
	j1.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second := campaignText(t, Options{Parallelism: 2, Journal: j2}, smallCampaign())
	if second != first {
		t.Errorf("resumed report differs:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
	if n := j2.Appends(); n != 0 {
		t.Errorf("resume re-simulated %d cell(s), want 0", n)
	}
	if j2.Hits() == 0 {
		t.Error("resume answered no cells from the journal")
	}

	// WindowFrac 0 selects PlanFor's default fraction, so a campaign
	// asking for 0.85 is the same campaign.
	fc := smallCampaign()
	fc.WindowFrac = 0.85
	if third := campaignText(t, Options{Parallelism: 2, Journal: j2}, fc); third != first {
		t.Errorf("WindowFrac 0.85 report differs from WindowFrac 0:\n--- 0 ---\n%s\n--- 0.85 ---\n%s", first, third)
	}
	if n := j2.Appends(); n != 0 {
		t.Errorf("WindowFrac 0.85 re-simulated %d cell(s) of the WindowFrac 0 campaign, want 0", n)
	}
}

// TestFaultCampaignRejectsCorruptJournal: a resumed journal entry
// whose trials do not decode fails its pair's cell with an error that
// names the run and the counter, rather than a panic or a masked
// trial: one entry's first outcome set to 9, past the five outcomes,
// and another's second injection cycle deleted.
func TestFaultCampaignRejectsCorruptJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fi.journal")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	campaignText(t, Options{Parallelism: 2, Journal: j1}, smallCampaign())
	j1.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal holds %d entries, want one per (mechanism, program) pair", len(lines))
	}
	keys := make([]string, len(lines))
	for i, edit := range []func(map[string]uint64){
		func(m map[string]uint64) { m["fi.outcome.0"] = 9 },
		func(m map[string]uint64) { delete(m, "fi.at.1") },
	} {
		var e JournalEntry
		if err := json.Unmarshal(lines[i], &e); err != nil {
			t.Fatal(err)
		}
		edit(e.Counters)
		keys[i] = e.Key
		if lines[i], err = json.Marshal(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, err = RunFaultCampaign(Options{Parallelism: 2, Journal: j2}, smallCampaign())
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 2 {
		t.Fatalf("err = %v, want both pairs' cells failed", err)
	}
	for _, ce := range ee.Cells {
		var pe *panicError
		if errors.As(ce.Cause, &pe) {
			t.Errorf("cell %d panicked: %v", ce.Index, ce.Cause)
		}
		msg := ce.Cause.Error()
		if !strings.Contains(msg, "fi.outcome.0 9") && !strings.Contains(msg, "no fi.at.1 counter") {
			t.Errorf("cell %d: %v, want the bad counter named", ce.Index, msg)
		}
		if !strings.Contains(msg, keys[0]) && !strings.Contains(msg, keys[1]) {
			t.Errorf("cell %d: %v, want the run key named", ce.Index, msg)
		}
	}
}

// TestFaultCampaignSeedChangesPlans: a different campaign seed
// explores different flips (the report or the journaled plans must
// differ).
func TestFaultCampaignSeedChangesPlans(t *testing.T) {
	fc := smallCampaign()
	rep1, err := RunFaultCampaign(Options{Parallelism: 2}, fc)
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 2
	rep2, err := RunFaultCampaign(Options{Parallelism: 2}, fc)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rep1.Cells {
		for k := range rep1.Cells[i].Trials {
			if rep1.Cells[i].Trials[k].Seed != rep2.Cells[i].Trials[k].Seed {
				same = false
			}
		}
	}
	if same {
		t.Error("campaign seeds 1 and 2 derived identical trial plans")
	}
}

// TestFaultCampaignCellFailureIsolated: an injected cell panic
// surfaces as one CellError while every other cell completes. A
// harness cell is a (mechanism, program) pair, so the report misses
// exactly that pair's cells, one per class.
func TestFaultCampaignCellFailureIsolated(t *testing.T) {
	t.Setenv(FailCellEnv, "FaultInject:0")
	fc := smallCampaign()
	rep, err := RunFaultCampaign(Options{Parallelism: 2}, fc)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 1 || ee.Cells[0].Index != 0 {
		t.Fatalf("want one failed cell at index 0, got %v", err)
	}
	want := len(fc.Classes)*len(fc.Mechs)*len(fc.Specs) - len(fc.Classes)
	if len(rep.Cells) != want {
		t.Errorf("%d surviving cells, want %d", len(rep.Cells), want)
	}
	for _, cr := range rep.Cells {
		if cr.Mech == fc.Mechs[0].Name && cr.Spec == fc.Specs[0] {
			t.Errorf("report holds %s|%s|%s, a cell of the failed pair", cr.Class, cr.Mech, cr.Spec)
		}
	}
}

// TestFaultCampaignAllocationBounded bounds what a serial default
// campaign at 5 trials allocates once a first campaign has warmed the
// process: each (mechanism, program) pair builds one baseline machine,
// one unarmed machine and one recycled trial machine, and steps its
// unfaulted prefix once for every class. A cell per class, each
// building its own unarmed machine, allocates about 74 MB; one walk
// per pair about 30 MB.
func TestFaultCampaignAllocationBounded(t *testing.T) {
	fc := FaultCampaign{Seed: 1, Trials: 5}
	campaignText(t, Options{Parallelism: 1}, fc)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	campaignText(t, Options{Parallelism: 1}, fc)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("serial default campaign at %d trials: %.1f MB allocated", fc.Trials, mb)
	if mb > 48 {
		t.Errorf("serial default campaign allocated %.1f MB, over 48 MB — a pair no longer walks its classes on one unarmed machine", mb)
	}
}

// TestFaultCampaignContextCancel: a cancelled context stops the
// campaign with a context error instead of running the full grid.
func TestFaultCampaignContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunFaultCampaign(Options{Parallelism: 1, Context: ctx}, smallCampaign())
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancelled campaign returned %v, want context.Canceled", err)
	}
}

// flakyWriter fails its first n writes, then delegates.
type flakyWriter struct {
	fails int
	buf   bytes.Buffer
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	if w.fails > 0 {
		w.fails--
		return 0, errors.New("transient write failure")
	}
	return w.buf.Write(p)
}

func testResult() core.Result {
	return core.Result{Cycles: 100, AppInsts: 50, IPC: 0.5}
}

// TestJournalWriteRetryRecovers: one transient append failure is
// retried (after the jittered backoff), counted, and the entry still
// lands — prefixed by the isolating newline.
func TestJournalWriteRetryRecovers(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fw := &flakyWriter{fails: 1}
	j.w = fw

	if err := j.record(nil, "Test", "key1", core.DefaultConfig(), nil, testResult()); err != nil {
		t.Fatalf("record after one transient failure: %v", err)
	}
	if n := j.WriteRetries(); n != 1 {
		t.Errorf("WriteRetries = %d, want 1", n)
	}
	if !bytes.HasPrefix(fw.buf.Bytes(), []byte("\n")) {
		t.Error("retried write does not lead with the isolating newline")
	}
	if !strings.Contains(fw.buf.String(), `"key1"`) {
		t.Errorf("journal line missing after retry: %q", fw.buf.String())
	}
}

// TestJournalWriteRetryFailsLoudly: a second consecutive failure is
// not absorbed.
func TestJournalWriteRetryFailsLoudly(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.w = &flakyWriter{fails: 2}

	err = j.record(nil, "Test", "key1", core.DefaultConfig(), nil, testResult())
	if err == nil || !strings.Contains(err.Error(), "retried once") {
		t.Errorf("persistent failure returned %v, want loud retried-once error", err)
	}
	if n := j.WriteRetries(); n != 1 {
		t.Errorf("WriteRetries = %d, want 1", n)
	}
}

// TestReproCarriesWatchdogLimit: a cell killed by the no-progress
// watchdog reproduces only under the limit that killed it, so the
// repro line must carry -noprogress.
func TestReproCarriesWatchdogLimit(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NoProgressLimit = 200_000
	ce := &CellError{
		Experiment: "Test", Index: 0, Config: &cfg,
		Workloads: []string{"mm"},
		Cause:     fmt.Errorf("wrapped: %w", &cpu.LivelockError{Cycle: 9, Limit: 200_000}),
	}
	if repro := ce.Repro(); !strings.Contains(repro, "-noprogress 200000") {
		t.Errorf("livelock repro missing -noprogress: %q", repro)
	}

	// Default limit and a non-watchdog cause: no flag.
	ce2 := &CellError{
		Experiment: "Test", Index: 0, Config: func() *core.Config { c := core.DefaultConfig(); return &c }(),
		Workloads: []string{"mm"}, Cause: errors.New("plain failure"),
	}
	if repro := ce2.Repro(); strings.Contains(repro, "-noprogress") {
		t.Errorf("ordinary repro gained -noprogress: %q", repro)
	}

	// A real cluster watchdog abort, through the cell's own report.
	r, c, err := clusterLivelock(t)
	repro := r.cellError(c, err).Repro()
	for _, want := range []string{"-cores 2", "-noprogress 20000"} {
		if !strings.Contains(repro, want) {
			t.Errorf("cluster livelock repro %q missing %q", repro, want)
		}
	}
}

// TestReproCarriesCellTimeout: a cell killed by the per-cell deadline
// carries the effective -cell-timeout; other failures do not.
func TestReproCarriesCellTimeout(t *testing.T) {
	cfg := core.DefaultConfig()
	ce := &CellError{
		Experiment: "Test", Index: 0, Config: &cfg,
		Workloads: []string{"mm"},
		Timeout:   30 * time.Second,
		Cause:     fmt.Errorf("run aborted: %w", context.DeadlineExceeded),
	}
	if repro := ce.Repro(); !strings.Contains(repro, "-cell-timeout 30s") {
		t.Errorf("timeout repro missing -cell-timeout: %q", repro)
	}

	ce.Cause = errors.New("plain failure")
	if repro := ce.Repro(); strings.Contains(repro, "-cell-timeout") {
		t.Errorf("non-timeout repro gained -cell-timeout: %q", repro)
	}
}

// TestFaultCampaignSDCEventsInTrialOrder: a cell runs its trials in
// injection-cycle order, yet each class's faultinject.sdc events come
// in trial index order, as they did when each trial ran from cycle 0.
func TestFaultCampaignSDCEventsInTrialOrder(t *testing.T) {
	fc := smallCampaign()
	fc.Trials = 8
	path := filepath.Join(t.TempDir(), "events.ndjson")
	events, err := telemetry.OpenLog(path, telemetry.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	plane := telemetry.NewPlane()
	plane.Events = events
	rep, err := RunFaultCampaign(Options{Parallelism: 1, Telemetry: plane}, fc)
	if err != nil {
		t.Fatal(err)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := telemetry.ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}

	// index maps a cell's (at, seed) to its trial index in the report.
	index := map[string]int{}
	for _, cr := range rep.Cells {
		for i, tr := range cr.Trials {
			index[fmt.Sprintf("%s|%s|%s|%d|%#x", cr.Class, cr.Mech, cr.Spec, tr.At, tr.Seed)] = i
		}
	}
	// A cell holds every class of its (mechanism, program) pair, so
	// trial order is per (cell, class).
	type seen struct{ index, at uint64 }
	type cellClass struct {
		cell  int
		class cpu.FaultClass
	}
	perCell := map[cellClass][]seen{}
	for _, e := range logged {
		if e.Type != "faultinject.sdc" {
			continue
		}
		_, tok, _ := strings.Cut(e.Detail, "-replay '")
		rt, err := faultinject.ParseReplayToken(strings.TrimSuffix(tok, "'"))
		if err != nil {
			t.Fatalf("sdc event detail %q: %v", e.Detail, err)
		}
		i, ok := index[fmt.Sprintf("%s|%s|%s|%d|%#x", rt.Plan.Class, rt.Mech.Name, rt.Spec, rt.Plan.At, rt.Plan.Seed)]
		if !ok {
			t.Fatalf("sdc event for a trial the report does not hold: %q", e.Detail)
		}
		cc := cellClass{e.Cell, rt.Plan.Class}
		perCell[cc] = append(perCell[cc], seen{uint64(i), rt.Plan.At})
	}
	inverted := false
	for cc, s := range perCell {
		for k := 1; k < len(s); k++ {
			if s[k].index <= s[k-1].index {
				t.Errorf("cell %d %s: sdc event for trial %d after trial %d", cc.cell, cc.class, s[k].index, s[k-1].index)
			}
			inverted = inverted || s[k].at < s[k-1].at
		}
	}
	if !inverted {
		t.Fatalf("no cell logged sdc events of one class out of injection-cycle order (%d cell classes with events); the test checks nothing", len(perCell))
	}
}
