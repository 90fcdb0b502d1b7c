package topology

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/workload"
)

func testConfig(t testing.TB) core.Config {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechMultithreaded
	cfg.Contexts = 2
	cfg.MaxInsts = 30_000
	return cfg
}

func mustBench(t testing.TB, name string) core.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// buildCluster assembles an n-core cluster with the given workloads
// loaded in ascending core order.
func buildCluster(t testing.TB, cfg core.Config, names ...string) *Cluster {
	t.Helper()
	c, err := New(Config{Cores: len(names), Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if err := c.Load(i, mustBench(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSingleCoreMatchesMachine: a 1-core cluster is the degenerate
// topology and must reproduce a plain single-machine run exactly —
// same image placement (fresh physical memory, ASN 1, same load
// order), same hierarchy (a private L2 domain), same driver
// semantics. Any drift here means the round-robin driver or the
// substrate constructor changed timing.
func TestSingleCoreMatchesMachine(t *testing.T) {
	cfg := testConfig(t)

	ref, err := core.Run(cfg, mustBench(t, "mph"))
	if err != nil {
		t.Fatal(err)
	}

	c := buildCluster(t, cfg, "mph")
	results, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := results[0]

	if got.Cycles != ref.Cycles || got.AppInsts != ref.AppInsts || got.DTLBMisses != ref.DTLBMisses {
		t.Errorf("1-core cluster diverged from single machine: cluster (cyc=%d insts=%d miss=%d) vs machine (cyc=%d insts=%d miss=%d)",
			got.Cycles, got.AppInsts, got.DTLBMisses, ref.Cycles, ref.AppInsts, ref.DTLBMisses)
	}
	if g, w := got.Stats.String(), ref.Stats.String(); g != w {
		t.Errorf("1-core cluster statistics diverged from single machine:\ncluster:\n%s\nmachine:\n%s", g, w)
	}
}

// TestClusterDeterminism: two identically-built clusters must produce
// identical per-core results and identical merged statistics — the
// round-robin driver admits no host-scheduling nondeterminism.
func TestClusterDeterminism(t *testing.T) {
	cfg := testConfig(t)
	run := func() ([]core.Result, string) {
		c := buildCluster(t, cfg, "mph", "cmp")
		results, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results, c.MergedStats(results).String()
	}

	r1, s1 := run()
	r2, s2 := run()
	for i := range r1 {
		if r1[i].Cycles != r2[i].Cycles || r1[i].AppInsts != r2[i].AppInsts {
			t.Errorf("core %d: run 1 (cyc=%d insts=%d) != run 2 (cyc=%d insts=%d)",
				i, r1[i].Cycles, r1[i].AppInsts, r2[i].Cycles, r2[i].AppInsts)
		}
	}
	if s1 != s2 {
		t.Error("merged statistics differ between identical runs")
	}
}

// TestClusterInterference: with an L2 small enough for the working
// sets to collide, adding a co-runner must slow the measured core
// down relative to running alone on the same topology, and the shared
// L2 must record the contention.
func TestClusterInterference(t *testing.T) {
	cfg := testConfig(t)
	// Shrink the shared L2 so two benchmark working sets thrash it.
	cfg.Hier.L2.Size = 16 << 10
	cfg.Hier.L2.Assoc = 2

	solo := buildCluster(t, cfg, "mph")
	soloRes, err := solo.Run()
	if err != nil {
		t.Fatal(err)
	}

	pair := buildCluster(t, cfg, "mph", "cmp")
	pairRes, err := pair.Run()
	if err != nil {
		t.Fatal(err)
	}

	if soloRes[0].AppInsts != pairRes[0].AppInsts {
		t.Fatalf("instruction budgets differ: solo %d vs pair %d — comparison invalid",
			soloRes[0].AppInsts, pairRes[0].AppInsts)
	}
	if pairRes[0].Cycles <= soloRes[0].Cycles {
		t.Errorf("co-runner did not slow core 0: %d cycles with co-runner vs %d alone",
			pairRes[0].Cycles, soloRes[0].Cycles)
	}
	if pair.Domain().L2.Evicts == 0 {
		t.Error("shared L2 recorded no evictions under a thrashing pair")
	}
	if got, want := pair.WorkloadNames(), []string{"murphi", "compress"}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("workload names = %v, want %v", got, want)
	}
}

// TestMergedStatsNamespacing: the merged set carries every core's
// counters under its own prefix plus the shared-L2 aggregates, and
// the per-core values survive the merge unchanged.
func TestMergedStatsNamespacing(t *testing.T) {
	cfg := testConfig(t)
	c := buildCluster(t, cfg, "mph", "cmp")
	results, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	merged := c.MergedStats(results)

	for i, res := range results {
		prefix := []string{"core0.", "core1."}[i]
		if got, want := merged.Get(prefix+"cycles"), res.Stats.Get("cycles"); got != want {
			t.Errorf("%scycles = %d, want %d", prefix, got, want)
		}
		if got, want := merged.Get(prefix+"app.retired"), res.Stats.Get("app.retired"); got != want {
			t.Errorf("%sapp.retired = %d, want %d", prefix, got, want)
		}
	}
	for _, name := range []string{"l2shared.hits", "l2shared.misses", "l2shared.memtransfers"} {
		if !strings.Contains(merged.String(), name) {
			t.Errorf("merged set missing %s", name)
		}
	}
	if got, want := merged.Get("l2shared.misses"), c.Domain().L2.Misses; got != want {
		t.Errorf("l2shared.misses = %d, want %d", got, want)
	}
}

// TestClusterErrors: construction and loading reject bad shapes.
func TestClusterErrors(t *testing.T) {
	if _, err := New(Config{Cores: 0, Core: testConfig(t)}); err == nil {
		t.Error("New accepted a 0-core cluster")
	}
	c := buildCluster(t, testConfig(t), "mph")
	if err := c.Load(1, mustBench(t, "cmp")); err == nil {
		t.Error("Load accepted an out-of-range core index")
	}
	if c.Cores() != 1 {
		t.Errorf("Cores() = %d, want 1", c.Cores())
	}
}

// TestClusterWatchdog: a core that stops retiring fails the run with
// the machine's own *cpu.LivelockError, wrapped with the core index —
// the one livelock type every caller classifies.
func TestClusterWatchdog(t *testing.T) {
	cfg := testConfig(t)
	cfg.OSFaultCycles = 1 << 40 // a paged-out first touch never returns
	cfg.NoProgressLimit = 20_000
	c, err := New(Config{Cores: 2, Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(0, &workload.Faulty{Inner: mustBench(t, "cmp").(*workload.Bench), Fraction: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(1, mustBench(t, "mph")); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	var ll *cpu.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run returned %v, want a wrapped *cpu.LivelockError", err)
	}
	if !strings.HasPrefix(err.Error(), "topology: core 0: ") {
		t.Errorf("livelock error does not name the stalled core: %.80s", err)
	}
	if ll.Limit != cfg.NoProgressLimit || ll.Cycle-ll.LastProgress <= ll.Limit || ll.Dump == "" {
		t.Errorf("livelock error fields inconsistent: cycle %d, last progress %d, limit %d, dump %d bytes",
			ll.Cycle, ll.LastProgress, ll.Limit, len(ll.Dump))
	}
}

// TestClusterCancel: a cancelled context aborts the run at the cores'
// first cancel poll, the machine's 1024-cycle cadence, with a
// *cpu.CancelledError carrying the context's error, as on a Machine.
func TestClusterCancel(t *testing.T) {
	c := buildCluster(t, testConfig(t), "mph", "cmp")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetCancel(ctx)
	results, err := c.Run()
	var ce *cpu.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("Run returned %v, want *cpu.CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CancelledError cause is %v, want the context's %v", ce.Cause, context.Canceled)
	}
	const pollInterval = 1024
	if results[0].Cycles > pollInterval {
		t.Errorf("cancellation observed only at cycle %d, poll interval is %d", results[0].Cycles, pollInterval)
	}
}

// TestClusterProbeLive: a cluster core publishes its probe while the
// cluster runs, every 1024 of its cycles, so the telemetry plane sees
// a SharedL2 cell's progress before the cell ends.
func TestClusterProbeLive(t *testing.T) {
	c := buildCluster(t, testConfig(t), "mph", "cmp")
	m := c.Core(0)
	var probe cpu.Probe
	m.SetProbe(&probe)
	var seen uint64
	read := false
	m.RetireHook = func(ri cpu.RetiredInst) {
		if !read && ri.Cycle > 2048 {
			read = true
			seen = probe.Cycles.Load()
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !read {
		t.Fatal("core 0 retired nothing past cycle 2048")
	}
	if seen < 1024 {
		t.Errorf("core 0's probe read cycle %d at its first retirement past cycle 2048, want at least 1024", seen)
	}
}
