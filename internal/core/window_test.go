package core

import (
	"context"
	"sync"
	"testing"

	"mtexc/internal/workload"
)

// checkpointOf runs w's functional pass under cfg and spec and returns
// its checkpoint at pos.
func checkpointOf(t *testing.T, name string, cfg Config, spec SampleSpec, pos uint64) *Checkpoint {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FunctionalPass(context.Background(), spec, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range p.Checkpoints {
		if cp.Pos == pos {
			return cp
		}
	}
	t.Fatalf("%s: no checkpoint at %d insts", name, pos)
	return nil
}

// windowConfigs are Figure 5's four mechanisms and their shared
// perfect-TLB baseline, the five configurations a sampled row runs
// over one pass.
func windowConfigs(insts uint64) []Config {
	var cfgs []Config
	for _, mc := range []struct {
		mech     Mechanism
		contexts int
	}{
		{MechTraditional, 1},
		{MechMultithreaded, 2},
		{MechMultithreaded, 4},
		{MechHardware, 1},
	} {
		cfg := DefaultConfig()
		cfg.Mech = mc.mech
		cfg.Contexts = mc.contexts
		cfg.MaxInsts = insts
		cfgs = append(cfgs, cfg)
	}
	return append(cfgs, PerfectOf(cfgs[0], 1))
}

// TestWindowsLeaveCheckpointUntouched: every window machine of a
// sampling position borrows the checkpoint's frames copy-on-write, so
// no window's stores may reach the checkpoint. compress stores into
// its data pages inside every window; a workload that only loads
// would pass even if the frames were aliased outright, and so would
// the window statistics, which do not read memory back.
func TestWindowsLeaveCheckpointUntouched(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	cfgs := windowConfigs(120_000)
	cp := checkpointOf(t, "cmp", cfgs[0], spec, 100_000)
	want := cp.Image.Space.ContentHash()
	for _, c := range cfgs {
		ws, err := runDetailedWindow(context.Background(), c, cp, spec)
		if err != nil {
			t.Fatalf("%s window: %v", c.Mech, err)
		}
		if ws.Insts == 0 {
			t.Fatalf("%s window retired nothing", c.Mech)
		}
		if got := cp.Image.Space.ContentHash(); got != want {
			t.Fatalf("%s window changed the checkpoint's memory: hash %#x, want %#x", c.Mech, got, want)
		}
	}
}

// TestCheckpointConcurrentWindows: the five window machines of a
// sampled row's position start from one checkpoint on five goroutines
// at once, as the cells of a row do, and each counts exactly what it
// counts alone. Under -race this is the check that starting from a
// checkpoint only reads it.
func TestCheckpointConcurrentWindows(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	cfgs := windowConfigs(120_000)
	cp := checkpointOf(t, "cmp", cfgs[0], spec, 100_000)
	want := cp.Image.Space.ContentHash()
	alone := make([]WindowCounts, len(cfgs))
	for i, c := range cfgs {
		var err error
		if alone[i], err = runDetailedWindow(context.Background(), c, cp, spec); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]WindowCounts, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, c := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runDetailedWindow(context.Background(), c, cp, spec)
		}()
	}
	wg.Wait()
	for i, c := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.Mech, errs[i])
		}
		if got[i] != alone[i] {
			t.Errorf("%s(%d): concurrent window %+v, alone %+v", c.Mech, c.Contexts, got[i], alone[i])
		}
	}
	if h := cp.Image.Space.ContentHash(); h != want {
		t.Errorf("concurrent windows changed the checkpoint: hash %#x, want %#x", h, want)
	}
}
