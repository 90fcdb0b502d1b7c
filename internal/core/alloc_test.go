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
// allocates once its run's second window has run: each window machine
// is a clone of the run's pristine machine made in the machine of the
// window before (WindowMachine), over the image its checkpoint
// rebuilt. It measures SampleWindows over the first two and over all
// checkpoints of a functional pass of gcc, each on a pass of its own,
// so every window also builds its checkpoint's image, and bounds the
// marginal bytes per window.
func TestSampleWindowsAllocationBounded(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	spec := SampleSpec{Period: 50_000, Warmup: 10_000, Window: 10_000}
	cfg := DefaultConfig()
	cfg.Mech = MechTraditional
	cfg.MaxInsts = 500_000
	ctx := context.Background()
	measure := func(n int) (bytes uint64, windows int) {
		pass, err := FunctionalPass(ctx, spec, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pass.Checkpoints = pass.Checkpoints[:min(n, len(pass.Checkpoints))]
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := SampleWindows(ctx, pass, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, len(pass.Checkpoints)
	}
	two, _ := measure(2)
	all, n := measure(1 << 30)
	per := (float64(all) - float64(two)) / float64(n-2)
	t.Logf("2 windows %d B, %d windows %d B: %.0f B per later window", two, n, all, per)
	if per > 256<<10 {
		t.Errorf("%.0f B allocated per window after a run's second exceeds 256 KB — window machines are no longer recycled", per)
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
