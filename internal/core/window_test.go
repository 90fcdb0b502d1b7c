package core

import (
	"context"
	"testing"

	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/workload"
)

// TestWindowsLeaveEngineUntouched: both window machines of a sampling
// position borrow the engine's frames copy-on-write, so neither
// window's stores may reach the engine. compress stores into its
// data pages inside every window; a workload that only loads would
// pass even if the frames were aliased outright, and so would the
// window statistics, which do not read memory back.
func TestWindowsLeaveEngineUntouched(t *testing.T) {
	w, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fastpath.New(img, fastpath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(100_000); err != nil {
		t.Fatal(err)
	}
	want := img.Space.ContentHash()
	cfg := DefaultConfig()
	cfg.Mech = MechTraditional
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	for _, c := range []Config{cfg, PerfectOf(cfg, 1)} {
		ws, err := runDetailedWindow(context.Background(), c, eng, spec)
		if err != nil {
			t.Fatalf("%s window: %v", c.Mech, err)
		}
		if ws.Insts == 0 {
			t.Fatalf("%s window retired nothing", c.Mech)
		}
		if got := img.Space.ContentHash(); got != want {
			t.Fatalf("%s window changed the engine's memory: hash %#x, want %#x", c.Mech, got, want)
		}
	}
}
