package harness

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtexc/internal/cpu"
	"mtexc/internal/telemetry"
)

// TestTelemetryDoesNotPerturbTables is the plane's core contract:
// attaching every telemetry surface must leave the rendered table
// byte-identical to an uninstrumented run.
func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	base := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp", "vor"},
		Parallelism: 2,
	}
	plain, err := Figure5(base)
	if err != nil {
		t.Fatal(err)
	}

	instrumented := base
	plane := telemetry.NewPlane()
	events, err := telemetry.OpenLog(filepath.Join(t.TempDir(), "events.ndjson"), telemetry.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Close()
	plane.Events = events
	plane.Trace = telemetry.NewRunTrace()
	instrumented.Telemetry = plane
	instrumented.Meter = telemetry.NewMeter()
	observed, err := Figure5(instrumented)
	if err != nil {
		t.Fatal(err)
	}

	if plain.String() != observed.String() {
		t.Errorf("telemetry perturbed the table:\n--- off ---\n%s--- on ---\n%s",
			plain.String(), observed.String())
	}
	if events.Len() == 0 {
		t.Error("instrumented run emitted no events")
	}
	if plane.Trace.Len() == 0 {
		t.Error("instrumented run recorded no trace spans")
	}
}

// TestTelemetryScrapeDuringRun scrapes the registry and the cell view
// continuously while a parallel experiment mutates them — the -race
// build is the real assertion — and checks that the cell counters
// observed across scrapes never step backwards.
func TestTelemetryScrapeDuringRun(t *testing.T) {
	plane := telemetry.NewPlane()
	opt := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp", "vor", "mph"},
		Parallelism: 4,
		Telemetry:   plane,
		Meter:       telemetry.NewMeter(),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scrapes []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := plane.Reg.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			mu.Lock()
			scrapes = append(scrapes, b.String())
			mu.Unlock()
			plane.Cells.Cells()
			plane.Cells.LiveProgress()
			time.Sleep(time.Millisecond)
		}
	}()

	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if len(scrapes) < 2 {
		t.Fatalf("only %d scrapes completed", len(scrapes))
	}
	prev := -1.0
	for i, s := range scrapes {
		v, err := scrapeValue(s, "mtexc_cells_started_total")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if v < prev {
			t.Fatalf("mtexc_cells_started_total went backwards: %v after %v", v, prev)
		}
		prev = v
	}
	// Also the live-inclusive counters, which hand off from probes to
	// finished totals mid-run.
	prev = -1.0
	for i, s := range scrapes {
		v, err := scrapeValue(s, "mtexc_sim_insts_total")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if v < prev {
			t.Fatalf("mtexc_sim_insts_total went backwards: %v after %v", v, prev)
		}
		prev = v
	}
	if final, _ := scrapeValue(scrapes[len(scrapes)-1], "mtexc_cells_started_total"); final == 0 {
		// The run may have outpaced the scraper; the counter itself
		// must still be right.
		if plane.Reg == nil {
			t.Error("no registry after run")
		}
	}
}

// scrapeValue extracts one unlabeled sample from an exposition dump.
func scrapeValue(exposition, name string) (float64, error) {
	for _, line := range strings.Split(exposition, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not in scrape", name)
}

func TestCellStatusClassification(t *testing.T) {
	timeout := &cpu.CancelledError{Cycle: 9, Cause: context.DeadlineExceeded}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{&panicError{val: "boom"}, "panic"},
		{&CellError{Cause: &panicError{val: "boom"}}, "panic"},
		{&cpu.LivelockError{Cycle: 5, Limit: 1}, "livelock"},
		{timeout, "timeout"},
		{fmt.Errorf("cell: %w", timeout), "timeout"},
		{errors.New("plain failure"), "fail"},
	} {
		if got := cellStatus(tc.err); got != tc.want {
			t.Errorf("cellStatus(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	// A stalled shared-L2 cluster cell is a livelock too.
	if _, _, err := clusterLivelock(t); cellStatus(err) != "livelock" {
		t.Errorf("cellStatus(cluster watchdog abort) = %q, want livelock (err: %.120v)", cellStatus(err), err)
	}
}

// TestTelemetryRecordsFailuresAndResume checks the event log against
// an injected panic and a journal resume.
func TestTelemetryRecordsFailuresAndResume(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	eventsPath := filepath.Join(dir, "events.ndjson")

	// First pass: populate the journal.
	j1, err := OpenJournal(journalPath, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Insts: 20_000, Benchmarks: []string{"cmp"}, Journal: j1}
	if _, err := Table2(opt); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second pass: resume from it, instrumented, with one injected
	// panic in a cell the journal cannot answer.
	t.Setenv(FailCellEnv, "Figure5:1")
	j2, err := OpenJournal(journalPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	plane := telemetry.NewPlane()
	events, err := telemetry.OpenLog(eventsPath, telemetry.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	plane.Events = events
	opt2 := Options{Insts: 20_000, Benchmarks: []string{"cmp"}, Journal: j2,
		Telemetry: plane, Meter: telemetry.NewMeter()}
	if _, err := Table2(opt2); err != nil {
		t.Fatalf("resumed Table2: %v", err)
	}
	if _, err := Figure5(opt2); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}

	logged, err := telemetry.ReadEvents(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var resumes, panics int
	for _, e := range logged {
		switch e.Type {
		case "cell.resume":
			resumes++
			if e.Fingerprint == "" {
				t.Error("cell.resume lacks a fingerprint")
			}
		case "cell.panic":
			panics++
			if e.Status != "panic" || e.Err == "" {
				t.Errorf("cell.panic malformed: %+v", e)
			}
		}
	}
	if resumes == 0 {
		t.Error("no cell.resume event for the journaled subject")
	}
	if panics != 1 {
		t.Errorf("got %d cell.panic events, want 1", panics)
	}
	if got := plane.Events.Len(); got == 0 {
		t.Error("event log reports zero length")
	}
	sum := opt2.Meter.Summary()
	if !strings.Contains(sum, "resumed") || !strings.Contains(sum, "FAIL") {
		t.Errorf("meter summary lacks resume/fail tallies: %q", sum)
	}
}

// TestFreshRunReportsNoResume: a subject that an earlier experiment of
// the same run journaled is answered from the journal, but it is not
// a resume. Table 4 repeats four of Figure 5's columns; on a fresh
// journal the meter, the registry and the event log count no resume.
func TestFreshRunReportsNoResume(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "journal.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	plane := telemetry.NewPlane()
	eventsPath := filepath.Join(dir, "events.ndjson")
	events, err := telemetry.OpenLog(eventsPath, telemetry.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	plane.Events = events
	opt := Options{Insts: 20_000, Benchmarks: []string{"cmp"}, Journal: j,
		Telemetry: plane, Meter: telemetry.NewMeter()}
	for _, run := range []func(Options) (*Table, error){Figure5, Table4} {
		if _, err := run(opt); err != nil {
			t.Fatal(err)
		}
	}
	if j.Hits() == 0 {
		t.Fatal("Table 4 read none of Figure 5's runs from the journal")
	}
	if sum := opt.Meter.Summary(); !strings.Contains(sum, ", 0 resumed") {
		t.Errorf("meter summary counts resumes: %q", sum)
	}
	var b strings.Builder
	if err := plane.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if v, err := scrapeValue(b.String(), "mtexc_cells_resumed_total"); err != nil || v != 0 {
		t.Errorf("mtexc_cells_resumed_total = %v (%v), want 0", v, err)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := telemetry.ReadEvents(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range logged {
		if e.Type == "cell.resume" {
			t.Errorf("cell.resume event on a fresh run: %+v", e)
		}
	}
}
