package harness

import (
	"errors"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/workload"
)

// TestSampledFailureRepro: a failed sampled cell reports its
// fingerprint and a repro line that re-runs it in sampled mode.
func TestSampledFailureRepro(t *testing.T) {
	t.Setenv(FailCellEnv, "Figure5Sampled:1")
	s, err := Figure5Sampled(Options{Insts: 120_000, Benchmarks: []string{"mph"}}, testSpec)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 1 {
		t.Fatalf("err = %v, want one failed cell", err)
	}
	if !s.Est.FailedAt(0, 1) || !s.CI.FailedAt(0, 1) {
		t.Error("failed sampled cell not marked FAIL on both tables")
	}
	ce := ee.Cells[0]
	if ce.Fingerprint == "" {
		t.Error("sampled cell error lost its fingerprint")
	}
	if repro := ce.Repro(); !strings.Contains(repro, "-bench mph -mech multithreaded") ||
		!strings.HasSuffix(repro, "-sample "+testSpec.String()) {
		t.Errorf("sampled repro = %q, want an mtexcsim -sample line", repro)
	}
}

// clusterLivelock runs a two-core cluster cell whose core 0 page-faults
// on its first data touch and, with the OS service time effectively
// infinite, never retires again — a real cluster watchdog abort.
func clusterLivelock(t *testing.T) (*runner, *cell, error) {
	t.Helper()
	r := newRunner(Options{Insts: 30_000}, "SharedL2")
	cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
	cfg.OSFaultCycles = 1 << 40
	cfg.NoProgressLimit = 20_000
	cmp, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	mph, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	loads := []core.Workload{&workload.Faulty{Inner: cmp, Fraction: 0.5, Seed: 7}, mph}
	c := &cell{index: 0, exp: r.exp}
	_, err = r.exec(c, clusterJob(cfg, loads))
	if err == nil {
		t.Fatal("stalled cluster completed")
	}
	return r, c, err
}
