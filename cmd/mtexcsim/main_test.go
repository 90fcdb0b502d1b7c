package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestSmokeRun(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-bench", "compress", "-mech", "multithreaded", "-insts", "20000"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, want := range []string{"benchmarks : compress", "mechanism  : multithreaded", "IPC"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestFuzzBenchReplay(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{
		"-bench", "fuzz:v1.s2.p8.t3.f7.k1-17284-15991-10488",
		"-mech", "traditional", "-idle", "0", "-emupopc",
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "IPC") {
		t.Errorf("stdout missing run summary:\n%s", out.String())
	}
}

func TestTwoLevelAndExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "snap.json")
	var out, errb bytes.Buffer
	rc := run([]string{
		"-bench", "compress", "-mech", "hardware", "-pt", "twolevel",
		"-insts", "20000", "-json", jsonPath,
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "snapshot written to") {
		t.Errorf("stdout missing export note:\n%s", out.String())
	}
}

func TestListAndUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-list"}, &out, &errb); rc != 0 {
		t.Errorf("-list: rc = %d, want 0", rc)
	}
	if !strings.Contains(out.String(), "compress") {
		t.Errorf("-list missing compress:\n%s", out.String())
	}
	if rc := run([]string{"-mech", "psychic"}, &out, &errb); rc != 2 {
		t.Errorf("unknown mechanism: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-pt", "inverted"}, &out, &errb); rc != 2 {
		t.Errorf("unknown page table: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-bench", "no-such-bench"}, &out, &errb); rc != 2 {
		t.Errorf("unknown benchmark: rc = %d, want 2", rc)
	}
}

func TestFunctionalTier(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-bench", "mph", "-functional", "-insts", "100000"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, want := range []string{"tier       : functional", "insts      : 100000", "throughput"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestSampledMode(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{
		"-bench", "mph", "-mech", "traditional",
		"-sample", "40000:5000:5000", "-insts", "200000",
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, want := range []string{"sampling   : 40000:5000:5000", "windows    : 5", "cycles/miss (95% CI)", "detail"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestSampledModeFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-bench", "mph", "-functional", "-sample", "1000:0:100"}, &out, &errb); rc != 2 {
		t.Errorf("-functional with -sample: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-bench", "mph,cmp", "-functional"}, &out, &errb); rc != 2 {
		t.Errorf("-functional with two benches: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-bench", "mph", "-sample", "nonsense"}, &out, &errb); rc != 2 {
		t.Errorf("bad -sample spec: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-bench", "mph", "-mech", "perfect", "-sample", "40000:5000:5000"}, &out, &errb); rc != 1 {
		t.Errorf("-sample with perfect subject: rc = %d, want 1", rc)
	}
	// Neither mode keeps a machine to snapshot or trace, so an output
	// it cannot write is refused up front rather than dropped.
	dir := t.TempDir()
	for _, mode := range [][]string{{"-sample", "40000:5000:5000"}, {"-functional"}} {
		for _, extra := range [][]string{
			{"-json", filepath.Join(dir, "x.json")},
			{"-seriescsv", filepath.Join(dir, "s.csv")},
			{"-trace", "10"},
			{"-kanata", filepath.Join(dir, "k.log")},
			{"-chrome", filepath.Join(dir, "c.json")},
			{"-stats"},
		} {
			args := append([]string{"-bench", "mph", "-insts", "100000"}, mode...)
			errb.Reset()
			if rc := run(append(args, extra...), &out, &errb); rc != 2 || !strings.Contains(errb.String(), "incompatible with -json") {
				t.Errorf("%s %s: rc = %d, stderr %q; want 2 and the flags named", mode[0], extra[0], rc, errb.String())
			}
		}
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) > 0 {
		t.Errorf("refused runs wrote %v", names)
	}
}

// TestCellTimeoutEveryMode: -cell-timeout bounds a sampled, a
// shared-L2 and a functional run as it bounds an exact one, so the
// repro line of a harness cell that hit its deadline in any mode
// reproduces the timeout (exit 1, context deadline exceeded) instead
// of printing results.
func TestCellTimeoutEveryMode(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "cmp", "-mech", "traditional", "-insts", "2000000", "-sample", "100000:10000:10000"},
		{"-bench", "mph", "-cores", "2", "-corunner", "cmp", "-insts", "150000"},
		{"-bench", "cmp", "-insts", "2000000"},
		{"-bench", "cmp", "-functional", "-insts", "300000000"},
	} {
		var out, errb bytes.Buffer
		rc := run(append(args, "-cell-timeout", "1ms"), &out, &errb)
		if rc != 1 || !strings.Contains(errb.String(), "context deadline exceeded") {
			t.Errorf("%v: rc = %d, stderr %q; want 1 and the deadline error", args, rc, errb.String())
		}
	}
}
