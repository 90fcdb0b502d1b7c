package harness

import (
	"context"

	"mtexc/internal/core"
	"mtexc/internal/topology"
	"mtexc/internal/workload"
)

// clusterJob is a shared-L2 cluster simulation: one core per
// workload, private L1s and TLBs, one shared L2 domain, the
// deterministic round-robin driver.
func clusterJob(cfg core.Config, loads []core.Workload) job {
	return job{cfg: cfg, loads: loads, cluster: true, sim: simCluster}
}

// simCluster runs the cluster until the measured core (core 0) is
// done (topology.Cluster.RunUntilDone), since no table reads the other
// cores, and returns core 0's scalars with the cluster-wide merged
// statistics attached ("coreN."-prefixed counters plus the "l2shared."
// aggregates, up to that cycle), so journaled cluster runs round-trip
// through lookup like any other simulation.
func simCluster(ctx context.Context, j job, probe *core.Probe) (core.Result, uint64, error) {
	cl, err := topology.New(topology.Config{Cores: len(j.loads), Core: j.cfg})
	if err != nil {
		return core.Result{}, 0, err
	}
	for i, w := range j.machineLoads() {
		if err := cl.Load(i, w); err != nil {
			return core.Result{}, 0, err
		}
	}
	if probe != nil {
		cl.Core(0).SetProbe(probe)
	}
	cl.SetCancel(ctx)
	results, err := cl.RunUntilDone(0)
	var insts uint64
	for _, res := range results {
		insts += res.AppInsts
	}
	res := results[0]
	res.Stats = cl.MergedStats(results)
	return res, insts, err
}

// l2Shapes are SharedL2's rows: the measured benchmark on core 0 with
// 0, 1 or 3 co-runner cores.
var l2Shapes = []struct {
	name     string
	cores    int
	corunner string
}{
	{"solo", 1, ""},
	{"2c +cmp", 2, "cmp"},
	{"4c +cmp", 4, "cmp"},
	{"2c +vor", 2, "vor"},
	{"4c +vor", 4, "vor"},
}

// l2Measured is the benchmark SharedL2 measures on core 0.
const l2Measured = "mph"

// SharedL2 measures shared-cache interference with exception
// handling: core 0 runs the TLB-intensive murphi benchmark under each
// exception architecture while 0, 1 or 3 co-runner cores thrash the
// shared L2 — evicting the page-table entries and handler code the
// miss handlers depend on. Cells report core 0's penalty cycles per
// miss against a perfect-TLB cluster of identical shape (same width,
// same co-runners), so the column differences isolate the mechanism
// and the row differences isolate the interference.
//
// A row builds each of its core images once and lends it to the
// row's clusters, the shared baseline's included.
func SharedL2(opt Options) (*Table, error) { return newRunner(opt, "SharedL2").sharedL2() }

func (r *runner) sharedL2() (*Table, error) {
	mechs := r.fig5Mechs()
	rows := make([]string, len(l2Shapes))
	for i, s := range l2Shapes {
		rows[i] = s.name
	}
	t := NewTable("Shared-L2 topology: core-0 penalty cycles/miss (mph measured, co-runners share the L2)", rows, configNames(mechs))
	err := r.forRows(len(l2Shapes), len(mechs), func(c *cell, si, mi int) error {
		shape := l2Shapes[si]
		loads, err := clusterLoads(l2Measured, shape.corunner, shape.cores)
		if err != nil {
			return err
		}
		// The perfect baseline depends on the cluster shape, not the
		// mechanism or its idle contexts: every column of a row shares
		// one baseline cluster, one context per core, through the
		// journal's store.
		cmp, err := r.compare(c, clusterJob(mechs[mi].cfg, loads).inRow(c.row))
		if err != nil {
			return err
		}
		t.Set(si, mi, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int {
		return one(i/len(mechs), i%len(mechs))
	})
	return t, err
}

// clusterLoads assembles the per-core workload list: the measured
// benchmark on core 0 and the co-runner on every other core.
func clusterLoads(measured, corunner string, cores int) ([]core.Workload, error) {
	b, err := workload.ByName(measured)
	if err != nil {
		return nil, err
	}
	loads := []core.Workload{b}
	for i := 1; i < cores; i++ {
		cr, err := workload.ByName(corunner)
		if err != nil {
			return nil, err
		}
		loads = append(loads, cr)
	}
	return loads, nil
}
