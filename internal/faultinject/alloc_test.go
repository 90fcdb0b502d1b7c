package faultinject

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/workload"
)

// TestForkedTrialAllocationBounded bounds what a fault trial
// allocates once its cell's first trial has run: the clone is made in
// the machine of the trial before (cpu.Machine.CloneInto), and the
// oracle compares memory without hashing it. It measures RunTrials on
// one and on 41 plans of each class of a campaign cell and bounds the
// marginal bytes per trial.
func TestForkedTrialAllocationBounded(t *testing.T) {
	p, err := gen.ParseSpec(workload.FaultInjectionSuite()[0])
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := MechByName("multi3")
	b, err := NewBaseline(p, mc)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(plans []cpu.FaultPlan) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunTrials(context.Background(), p, mc, b, plans); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, class := range DefaultClasses() {
		key := fmt.Sprintf("%s|%s|alloc", class, mc.Name)
		plans := make([]cpu.FaultPlan, 41)
		for i := range plans {
			plans[i] = PlanFor(1, key, i, class, b.Cycles, 0)
		}
		one, all := measure(plans[:1]), measure(plans)
		per := (float64(all) - float64(one)) / 40
		t.Logf("%s: 1 trial %d B, 41 trials %d B: %.0f B per later trial", class, one, all, per)
		// A later trial measures 19-24 KB, mostly the pages and cache
		// blocks the unarmed machine copies as it steps on between
		// forks. Without the recycled frames it is 35-41 KB, and with
		// a fresh clone per trial about 400 KB.
		if per > 32<<10 {
			t.Errorf("%s: %.0f B allocated per trial after the first exceeds 32 KB — the trial machine is no longer recycled whole", class, per)
		}
	}
}
