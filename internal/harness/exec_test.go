package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/workload"
)

// A perfect TLB never spawns a handler, so the idle contexts
// core.PerfectOf drops cannot move a baseline: perfect cycles and every
// counter are the same with 0, 1 and 3 idle contexts, over the suite,
// Figure 7's mixes and the SharedL2 cluster shapes.
func TestPerfectBaselineIgnoresIdleContexts(t *testing.T) {
	insts := uint64(60_000)
	if testing.Short() {
		insts = 8_000
	}
	r := newRunner(Options{Insts: insts}, "idle")
	perfect := r.baseConfig(core.MechPerfect, 1, 0)
	byName := func(names ...string) []core.Workload {
		loads := make([]core.Workload, len(names))
		for i, n := range names {
			b, err := workload.ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			loads[i] = b
		}
		return loads
	}
	var jobs []job
	for _, b := range workload.All() {
		jobs = append(jobs, exactJob(perfect, b))
	}
	for _, mix := range PaperMixes {
		jobs = append(jobs, exactJob(perfect, byName(mix[:]...)...))
	}
	for _, s := range l2Shapes {
		loads, err := clusterLoads(l2Measured, s.corunner, s.cores)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, clusterJob(perfect, loads))
	}
	for _, j := range jobs {
		name := strings.Join(loadNames(j.loads), "-")
		if j.cluster {
			name = fmt.Sprintf("%dc:%s", len(j.loads), name)
		}
		t.Run(name, func(t *testing.T) {
			var want core.Result
			for _, idle := range []int{0, 1, 3} {
				jj := j
				jj.cfg.Contexts = j.threads() + idle
				res, _, err := jj.sim(context.Background(), jj, nil)
				if err != nil {
					t.Fatalf("%d idle: %v", idle, err)
				}
				if idle == 0 {
					want = res
					continue
				}
				if res.Cycles != want.Cycles || res.AppInsts != want.AppInsts {
					t.Errorf("%d idle: %d cycles, %d insts; want %d, %d", idle, res.Cycles, res.AppInsts, want.Cycles, want.AppInsts)
				}
				if got, exp := counterMap(res.Stats), counterMap(want.Stats); !reflect.DeepEqual(got, exp) {
					t.Errorf("%d idle: counters differ\n got %v\nwant %v", idle, got, exp)
				}
			}
		})
	}
}

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
