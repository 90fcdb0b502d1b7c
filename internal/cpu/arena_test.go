package cpu

import (
	"fmt"
	"testing"

	"mtexc/internal/workload"
)

// New sizes the uop arena for the most instructions a machine can hold
// at once, so no run regrows it: a machine ends every run with the
// capacity it started with. The runs cover the suite under the perfect
// TLB and each mechanism of Figure 5 (one to four contexts), a Figure 7
// mix of three applications plus a handler context, and a quick-started
// handler.
func TestUopArenaNeverRegrows(t *testing.T) {
	insts := uint64(100_000)
	if testing.Short() {
		insts = 20_000
	}
	run := func(t *testing.T, cfg Config, names ...string) {
		cfg.MaxInsts = insts
		cfg.MaxCycles = 400 * insts
		m := New(cfg)
		capacity := cap(m.uops)
		for i, n := range names {
			b, err := workload.ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			img, err := b.Build(m.Phys(), uint8(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AddProgram(img); err != nil {
				t.Fatal(err)
			}
			m.WarmPageTable(img.Space)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := cap(m.uops); got != capacity {
			t.Errorf("%d contexts: the arena grew from %d to %d slots (%d used)",
				cfg.Contexts, capacity, got, len(m.uops))
		}
	}
	config := func(mech Mechanism, contexts int, quick bool) Config {
		cfg := DefaultConfig()
		cfg.Mech = mech
		cfg.Contexts = contexts
		cfg.QuickStart = quick
		return cfg
	}
	mechs := []struct {
		name string
		cfg  Config
	}{
		{"perfect", config(MechPerfect, 1, false)},
		{"traditional", config(MechTraditional, 1, false)},
		{"multi1", config(MechMultithreaded, 2, false)},
		{"multi3", config(MechMultithreaded, 4, false)},
		{"hardware", config(MechHardware, 1, false)},
	}
	for _, b := range workload.All() {
		for _, m := range mechs {
			t.Run(fmt.Sprintf("%s/%s", b.Short(), m.name), func(t *testing.T) {
				run(t, m.cfg, b.Short())
			})
		}
	}
	t.Run("mix/adm-gcc-vor/multi1", func(t *testing.T) {
		run(t, config(MechMultithreaded, 4, false), "adm", "gcc", "vor")
	})
	t.Run("cmp/quickstart1", func(t *testing.T) {
		run(t, config(MechMultithreaded, 2, true), "cmp")
	})
}
