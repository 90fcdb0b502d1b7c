package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"mtexc/internal/topology"
)

// TestSharedL2Shape: the topology table must carry one row per
// cluster shape and one column per mechanism, with every cell filled
// by a finite number (cluster cells run several cores, so the budget
// here is deliberately tiny — ordering claims need the full budget
// and live in EXPERIMENTS.md, not in this suite).
func TestSharedL2Shape(t *testing.T) {
	tab, err := SharedL2(Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	rows := []string{"solo", "2c +cmp", "4c +cmp", "2c +vor", "4c +vor"}
	cols := []string{"traditional", "multi(1)", "multi(3)", "hardware"}
	for _, r := range rows {
		if tab.Row(r) == -1 {
			t.Fatalf("missing row %q", r)
		}
		for _, c := range cols {
			v := tab.Cell(r, c)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("cell %s/%s = %v", r, c, v)
			}
		}
	}
}

// TestSharedL2ParallelismIndependence: cluster cells must render
// byte-identically no matter how many harness workers run them — the
// round-robin cluster driver is deterministic and the tables are
// assembled by cell index, not completion order.
func TestSharedL2ParallelismIndependence(t *testing.T) {
	serial, err := SharedL2(Options{Insts: 20_000, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SharedL2(Options{Insts: 20_000, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallelism changed the table:\n-- serial --\n%s\n-- parallel --\n%s",
			serial.String(), parallel.String())
	}
}

// TestMeasuredCoreStopMatchesRun: a SharedL2 cluster stops once core
// 0, the only core the table reads, is done (simCluster, over the
// row's lent images), and core 0's Result must equal a full
// topology.Cluster.Run's over images built in place: cycles,
// instructions, fills and every counter of its own. The cmp
// co-runners are still running when core 0 finishes, and the vor
// co-runners have finished before it; both must hold, or the test no
// longer covers both cases.
func TestMeasuredCoreStopMatchesRun(t *testing.T) {
	r := newRunner(Options{Insts: 20_000}, "SharedL2")
	for _, shape := range l2Shapes {
		loads, err := clusterLoads(l2Measured, shape.corunner, shape.cores)
		if err != nil {
			t.Fatal(err)
		}
		row := &rowValues{}
		for _, m := range r.fig5Mechs() {
			j := clusterJob(m.cfg, loads).inRow(row)
			got, _, err := j.sim(context.Background(), j, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", shape.name, m.name, err)
			}
			cl, err := topology.New(topology.Config{Cores: len(loads), Core: m.cfg})
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range loads {
				if err := cl.Load(i, w); err != nil {
					t.Fatal(err)
				}
			}
			full, err := cl.Run()
			if err != nil {
				t.Fatalf("%s %s: %v", shape.name, m.name, err)
			}
			want := full[0]
			if got.Cycles != want.Cycles || got.AppInsts != want.AppInsts || got.DTLBMisses != want.DTLBMisses {
				t.Errorf("%s %s: core 0 stopped early ran %d cycles, %d insts, %d fills; a full run %d, %d, %d",
					shape.name, m.name, got.Cycles, got.AppInsts, got.DTLBMisses, want.Cycles, want.AppInsts, want.DTLBMisses)
			}
			own, n := counterMap(want.Stats), 0
			for name, v := range counterMap(got.Stats) {
				if name, ok := strings.CutPrefix(name, "core0."); ok {
					n++
					if own[name] != v {
						t.Errorf("%s %s: core 0's %s is %d stopped early, %d in a full run", shape.name, m.name, name, v, own[name])
					}
				}
			}
			if n != len(own) {
				t.Errorf("%s %s: the merged statistics hold %d of core 0's %d counters", shape.name, m.name, n, len(own))
			}
			if len(full) > 1 {
				last := full[0].Cycles < full[len(full)-1].Cycles
				if want := shape.corunner == "cmp"; last != want {
					t.Errorf("%s %s: core 0 finished at cycle %d, the last co-runner at %d; want core 0 first: %v",
						shape.name, m.name, full[0].Cycles, full[len(full)-1].Cycles, want)
				}
			}
		}
	}
}
