package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mtexc/internal/harness"
)

func TestTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-table1", "-journal", ""}, &out, &errb); rc != 0 {
		t.Fatalf("-table1: rc = %d; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "Table 1: base simulated machine configuration") {
		t.Errorf("missing Table 1 header:\n%s", out.String())
	}
}

func TestTable2Smoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-table2", "-bench", "compress", "-insts", "20000", "-journal", ""}, &out, &errb)
	if rc != 0 {
		t.Fatalf("-table2: rc = %d; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "compress") {
		t.Errorf("table missing compress row:\n%s", out.String())
	}
}

// TestExperimentsRunOneAtATime: experiments run one after another on
// the -parallel workers, so a serial run's trace has one lane and no
// two simulations on it overlap, and Table 4 reads the runs it repeats
// from the journal Figure 5 left them in instead of racing them.
func TestExperimentsRunOneAtATime(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	rc := run([]string{"-fig5", "-table4", "-bench", "cmp", "-insts", "20000", "-parallel", "1",
		"-journal", filepath.Join(dir, "journal.ndjson"), "-runtrace", trace}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d; stderr: %s", rc, errb.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat, Ph string
			TS, Dur uint64
			TID     uint64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ends := map[uint64]uint64{} // lane -> end of its last simulation
	sims := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || (e.Cat != "sim" && e.Cat != "baseline") {
			continue
		}
		sims++
		if e.TS < ends[e.TID] {
			t.Errorf("lane %d: a simulation starts at %d µs, before the previous one ends at %d µs", e.TID, e.TS, ends[e.TID])
		}
		ends[e.TID] = e.TS + e.Dur
	}
	if sims == 0 || len(ends) != 1 {
		t.Errorf("%d simulation span(s) on %d lane(s), want some on one", sims, len(ends))
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-journal", ""}, &out, &errb); rc != 2 {
		t.Errorf("no experiments selected: rc = %d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "Usage of mtexc-experiments") {
		t.Errorf("stderr missing usage text: %s", errb.String())
	}
	if rc := run([]string{"-made-up-flag"}, &out, &errb); rc != 2 {
		t.Errorf("unknown flag: rc = %d, want 2", rc)
	}
}

// TestSampleCheckSmoke is the short end-to-end form of the CI
// sampling-smoke job: exact vs sampled Figure 5 on one benchmark must
// agree within the reported confidence intervals.
func TestSampleCheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 5 twice")
	}
	var out, errb bytes.Buffer
	rc := run([]string{
		"-sample-check", "-bench", "mph", "-insts", "400000",
		"-sample", "50000:10000:10000", "-journal", "",
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, want := range []string{"Figure 5 (sampled", "confidence half-width", "sample-check: all cells within tolerance"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestSampleCheckTimesItsOwnRuns: -sample-check's exact Figure 5
// simulates on a journal of its own, so the wall clock it divides is
// that of runs it made, even after -fig5 ran the same cells on the
// invocation's journal. The run trace holds cmp's four exact subjects
// and their baseline twice, -fig5's and then the check's. Resumed
// from a journal that answers its sampled runs, the check says it did
// not time them instead of printing a speedup.
func TestSampleCheckTimesItsOwnRuns(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	journal := filepath.Join(dir, "journal.ndjson")
	args := []string{"-fig5", "-sample-check", "-bench", "cmp", "-insts", "200000",
		"-sample", "40000:10000:10000", "-parallel", "1", "-journal", journal}
	var out, errb bytes.Buffer
	if rc := run(append(args, "-runtrace", trace), &out, &errb); rc != 0 {
		t.Fatalf("rc = %d; stderr: %s", rc, errb.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat, Ph string
			TS, Dur uint64
			Args    struct{ Exp string }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type span struct {
		cat      string
		from, to uint64
	}
	var exact []span
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && (e.Cat == "sim" || e.Cat == "baseline") && e.Args.Exp == "Figure5" {
			exact = append(exact, span{e.Cat, e.TS, e.TS + e.Dur})
		}
	}
	if len(exact) != 10 {
		t.Fatalf("the trace holds %d exact Figure 5 simulations, want 10: -fig5's four subjects and baseline, then the check's", len(exact))
	}
	slices.SortFunc(exact, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	for i, half := range [][]span{exact[:5], exact[5:]} {
		baselines := 0
		for _, s := range half {
			if s.cat == "baseline" {
				baselines++
			}
		}
		if baselines != 1 {
			t.Errorf("exact run %d holds %d baselines, want 1 and four subjects", i+1, baselines)
		}
	}
	if exact[5].from < exact[4].to {
		t.Errorf("the check's first exact simulation starts at %d µs, before -fig5's last ends at %d µs", exact[5].from, exact[4].to)
	}
	if !strings.Contains(out.String(), "x wall clock)") {
		t.Errorf("stdout has no speedup:\n%s", out.String())
	}

	out.Reset()
	if rc := run(append(args, "-resume"), &out, &errb); rc != 0 {
		t.Fatalf("resumed: rc = %d; stderr: %s", rc, errb.String())
	}
	if want := "the sampled side was not timed"; !strings.Contains(out.String(), want) || strings.Contains(out.String(), "x wall clock)") {
		t.Errorf("resumed stdout says no %q, or prints a speedup:\n%s", want, out.String())
	}
}

// TestSampledJSONRows: with -json, every stdout line of a sampled run
// is a JSON row, including the CI table of a one-window run whose
// half-widths are +Inf, and the sampled-detail line goes to stderr.
func TestSampledJSONRows(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{
		"-fig5sampled", "-json", "-bench", "cmp", "-insts", "100000",
		"-sample", "100000:10000:10000", "-journal", "",
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Errorf("stdout line %q is not JSON: %v", line, err)
		}
	}
	if !strings.Contains(out.String(), `"nonfinite":{"hardware":"+Inf"`) {
		t.Errorf("stdout lists no +Inf half-width:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "sampled detail:") {
		t.Errorf("stderr missing the sampled-detail line:\n%s", errb.String())
	}
}

func TestBadSampleSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-fig5sampled", "-sample", "bogus", "-journal", ""}, &out, &errb); rc != 2 {
		t.Errorf("bad -sample spec: rc = %d, want 2", rc)
	}
}

// TestSampledFailureDigest: a failed sampled cell, the second
// benchmark's row, still prints the partial tables, marked FAIL, then
// the same FAILED/repro digest as the exact experiments.
func TestSampledFailureDigest(t *testing.T) {
	t.Setenv(harness.FailCellEnv, "Figure5Sampled:1")
	var out, errb bytes.Buffer
	rc := run([]string{
		"-fig5sampled", "-bench", "cmp,mph", "-insts", "120000",
		"-sample", "40000:4000:4000", "-journal", "",
	}, &out, &errb)
	if rc != 1 {
		t.Fatalf("rc = %d, want 1; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "confidence half-width") {
		t.Errorf("partial sampled tables missing:\n%s", out.String())
	}
	for _, want := range []string{"FAILED Figure5Sampled cell 1", "repro: mtexcsim -bench mph", "-sample 40000:4000:4000"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}
