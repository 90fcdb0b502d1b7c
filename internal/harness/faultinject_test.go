package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/faultinject"
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
// surfaces as one CellError while every other cell completes.
func TestFaultCampaignCellFailureIsolated(t *testing.T) {
	t.Setenv(FailCellEnv, "FaultInject:0")
	fc := smallCampaign()
	rep, err := RunFaultCampaign(Options{Parallelism: 2}, fc)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 1 || ee.Cells[0].Index != 0 {
		t.Fatalf("want one failed cell at index 0, got %v", err)
	}
	want := len(fc.Classes)*len(fc.Mechs)*len(fc.Specs) - 1
	if len(rep.Cells) != want {
		t.Errorf("%d surviving cells, want %d", len(rep.Cells), want)
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

	if err := j.record("Test", "key1", core.DefaultConfig(), nil, testResult()); err != nil {
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

	err = j.record("Test", "key1", core.DefaultConfig(), nil, testResult())
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
