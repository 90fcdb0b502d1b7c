package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mtexc/internal/workload"
)

// smallArgs is a campaign small enough for a unit test: one workload,
// two classes, two mechanisms, two trials per cell.
func smallArgs(extra ...string) []string {
	args := []string{
		"-specs", workload.FaultInjectionSuite()[0],
		"-classes", "reg,tlb",
		"-mechs", "trad,multi1",
		"-trials", "2",
	}
	return append(args, extra...)
}

func TestCampaignSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run(smallArgs(), &out, &errb); rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s\nstdout: %s", rc, errb.String(), out.String())
	}
	for _, want := range []string{"Fault-injection campaign: 4 cells", "Outcome histogram", "AVF-style vulnerability"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	var a, b, errb bytes.Buffer
	if rc := run(smallArgs("-parallel", "1"), &a, &errb); rc != 0 {
		t.Fatalf("serial: rc = %d; stderr: %s", rc, errb.String())
	}
	if rc := run(smallArgs("-parallel", "4"), &b, &errb); rc != 0 {
		t.Fatalf("parallel: rc = %d; stderr: %s", rc, errb.String())
	}
	if a.String() != b.String() {
		t.Errorf("reports differ across -parallel:\n--- 1 ---\n%s\n--- 4 ---\n%s", a.String(), b.String())
	}
}

// TestSDCReplayRoundTrip extracts a replay command the campaign
// printed and verifies the trial reproduces bit-for-bit: identical
// replay output on two runs, exit 0.
func TestSDCReplayRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	// reg flips against trad reliably produce SDC trials.
	if rc := run(smallArgs(), &out, &errb); rc != 0 {
		t.Fatalf("campaign: rc = %d; stderr: %s", rc, errb.String())
	}
	m := regexp.MustCompile(`-replay '([^']+)'`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("campaign printed no SDC replay command:\n%s", out.String())
	}
	token := m[1]

	var r1, r2, errb1, errb2 bytes.Buffer
	if rc := run([]string{"-replay", token}, &r1, &errb1); rc != 0 {
		t.Fatalf("replay rc = %d; stderr: %s\nstdout: %s", rc, errb1.String(), r1.String())
	}
	if rc := run([]string{"-replay", token}, &r2, &errb2); rc != 0 {
		t.Fatalf("second replay rc = %d; stderr: %s", rc, errb2.String())
	}
	if r1.String() != r2.String() {
		t.Errorf("replay output not reproducible:\n--- first ---\n%s\n--- second ---\n%s", r1.String(), r2.String())
	}
	for _, want := range []string{"flip fired at cycle", "outcome: sdc", "reproduced recorded outcome sdc"} {
		if !strings.Contains(r1.String(), want) {
			t.Errorf("replay output missing %q:\n%s", want, r1.String())
		}
	}
}

// TestReplayMismatchExitsOne: a token whose expected outcome cannot
// reproduce (a never-firing flip recorded as sdc) exits 1.
func TestReplayMismatchExitsOne(t *testing.T) {
	spec := workload.FaultInjectionSuite()[0]
	token := "fi1;spec=" + spec + ";mech=trad;class=reg;at=1099511627776;seed=0x9;expect=sdc"
	var out, errb bytes.Buffer
	if rc := run([]string{"-replay", token}, &out, &errb); rc != 1 {
		t.Fatalf("rc = %d, want 1; stderr: %s\nstdout: %s", rc, errb.String(), out.String())
	}
	if !strings.Contains(errb.String(), "does not reproduce") {
		t.Errorf("stderr missing mismatch report: %q", errb.String())
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-classes", "bogus"},
		{"-mechs", "bogus"},
		{"-replay", "not-a-token"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if rc := run(args, &out, &errb); rc != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", args, rc, errb.String())
		}
	}
}

// TestOutOfRangeFlagsExitTwo: a -frac outside (0, 1] or a -trials
// below 1 is a usage error naming the accepted ranges, not a campaign
// silently run with a default in its place.
func TestOutOfRangeFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-frac", "1.5"}, {"-frac", "0"}, {"-frac", "-0.2"}, {"-trials", "0"}, {"-trials", "-3"},
	} {
		var out, errb bytes.Buffer
		if rc := run(smallArgs(args...), &out, &errb); rc != 2 || out.Len() != 0 ||
			!strings.Contains(errb.String(), "-trials at least 1 and -frac in (0, 1]") {
			t.Errorf("run(%v) = %d, stdout %d bytes, stderr %q; want 2, no report and the accepted ranges", args, rc, out.Len(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if rc := run(smallArgs("-frac", "1", "-trials", "1"), &out, &errb); rc != 0 {
		t.Errorf("-frac 1 -trials 1: rc = %d, want 0; stderr: %s", rc, errb.String())
	}
}

// TestJournalResumeCLI: -journal -resume answers the whole campaign
// from disk with identical output.
func TestJournalResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fi.journal")
	var a, b, errb bytes.Buffer
	if rc := run(smallArgs("-journal", path), &a, &errb); rc != 0 {
		t.Fatalf("first run: rc = %d; stderr: %s", rc, errb.String())
	}
	if rc := run(smallArgs("-journal", path, "-resume"), &b, &errb); rc != 0 {
		t.Fatalf("resume: rc = %d; stderr: %s", rc, errb.String())
	}
	if a.String() != b.String() {
		t.Errorf("resumed report differs:\n--- first ---\n%s\n--- resumed ---\n%s", a.String(), b.String())
	}
}
