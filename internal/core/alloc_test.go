package core

import (
	"context"
	"runtime"
	"testing"

	"mtexc/internal/workload"
)

// The simulator's per-cycle loop (fetch/issue/retire) recycles uops
// and scratch buffers, and the per-thread queues slide within fixed
// backing arrays, so the marginal allocation cost of simulating more
// instructions must stay near zero: the machine allocates while
// warming its pools, then runs allocation-free. This test measures
// the allocations and bytes added by growing a run from 50k to 250k
// retired instructions; a regression in the hot path (a forgotten
// pooled slice, a new per-cycle map, a queue that reallocates as it
// moves) shows up as a per-instruction cost far above the bounds.
func TestHotPathAllocationsBounded(t *testing.T) {
	b, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(insts uint64) (allocs, bytes uint64) {
		cfg := DefaultConfig()
		cfg.Mech = MechMultithreaded
		cfg.Contexts = 2
		cfg.MaxInsts = insts
		cfg.MaxCycles = 400 * insts
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	smallAllocs, smallBytes := measure(50_000)
	largeAllocs, largeBytes := measure(250_000)
	allocs := (float64(largeAllocs) - float64(smallAllocs)) / 200_000
	bytes := (float64(largeBytes) - float64(smallBytes)) / 200_000
	t.Logf("50k-run %d allocs %d B, 250k-run %d allocs %d B: marginal %.4f allocs/inst, %.2f B/inst",
		smallAllocs, smallBytes, largeAllocs, largeBytes, allocs, bytes)
	// The run measures ~0.003 allocs and ~0.3 B per instruction, the
	// per-exception bookkeeping that scales with the miss rate. Queues
	// that reallocate as pops re-slice them and pushes append cost
	// ~0.16 allocs and ~27 B per instruction, and the pre-pool
	// simulator ~5 allocs; the bounds sit well above the first and far
	// below the others.
	if allocs > 0.02 || bytes > 3 {
		t.Errorf("marginal allocation cost %.4f allocs/inst, %.2f B/inst exceeds 0.02 allocs, 3 B — a hot-path allocation crept in",
			allocs, bytes)
	}
}

// TestTelemetryProbeAllocationFree extends the hot-path guard to the
// live-telemetry plumbing: a run with telemetry disabled (nil probe)
// and a run with a probe attached must both stay within the same
// marginal-allocation bound as the uninstrumented simulator — the
// probe publishes through preallocated atomics, so observation adds
// zero allocations per instruction either way.
func TestTelemetryProbeAllocationFree(t *testing.T) {
	b, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(insts uint64, withProbe bool) uint64 {
		cfg := DefaultConfig()
		cfg.Mech = MechMultithreaded
		cfg.Contexts = 2
		cfg.MaxInsts = insts
		cfg.MaxCycles = 400 * insts
		var probe *Probe
		if withProbe {
			probe = &Probe{}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunObserved(context.Background(), cfg, probe, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	for _, withProbe := range []bool{false, true} {
		small := measure(50_000, withProbe)
		large := measure(250_000, withProbe)
		if large < small {
			continue
		}
		marginal := float64(large-small) / 200_000
		t.Logf("probe=%v: allocs 50k-run %d, 250k-run %d, marginal %.4f allocs/inst",
			withProbe, small, large, marginal)
		if marginal > 0.5 {
			t.Errorf("probe=%v: marginal allocation cost %.4f allocs/inst exceeds 0.5 — telemetry leaked into the hot path",
				withProbe, marginal)
		}
	}
}
