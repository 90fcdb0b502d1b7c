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

// TestSampleWindowsAllocationBounded bounds what a sampled window
// allocates once its walk's second position has run: each window
// machine is a clone of its configuration's pristine machine made in
// the walk's previous window machine, whatever its configuration
// (WindowMachine), over the image its checkpoint rebuilt. It walks gcc
// under Figure 5's five configurations, as a sampled row does,
// measures what each position's windows allocate, the functional
// tier's steps between them aside, and bounds the mean bytes per
// window after the second position.
func TestSampleWindowsAllocationBounded(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	spec := SampleSpec{Period: 50_000, Warmup: 10_000, Window: 10_000}
	cfgs := windowConfigs(500_000)
	ctx := context.Background()
	wr := newWindowRuns(spec, cfgs)
	var bytes []uint64
	_, err = Walk(ctx, spec, w, cfgs[0], func(cp *Checkpoint) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wr.at(ctx, cp)
		runtime.ReadMemStats(&after)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var later uint64
	for _, b := range bytes[2:] {
		later += b
	}
	per := float64(later) / float64(len(cfgs)*len(bytes[2:]))
	t.Logf("%d positions of %d windows: %d B and %d B at the first two, %.0f B per later window", len(bytes), len(cfgs), bytes[0], bytes[1], per)
	if per > 256<<10 {
		t.Errorf("%.0f B allocated per window after a walk's second position exceeds 256 KB — window machines are no longer recycled", per)
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
