package main

import (
	"bytes"
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

func TestBadSampleSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-fig5sampled", "-sample", "bogus", "-journal", ""}, &out, &errb); rc != 2 {
		t.Errorf("bad -sample spec: rc = %d, want 2", rc)
	}
}

// TestSampledFailureDigest: a failed sampled cell still prints the
// partial tables, marked FAIL, then the same FAILED/repro digest as the
// exact experiments.
func TestSampledFailureDigest(t *testing.T) {
	t.Setenv(harness.FailCellEnv, "Figure5Sampled:1")
	var out, errb bytes.Buffer
	rc := run([]string{
		"-fig5sampled", "-bench", "mph", "-insts", "120000",
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
