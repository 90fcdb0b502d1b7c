package diffsim

import (
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/workload"
)

// TestWindowHandoff checks the state a sampled window machine starts
// from (core.WindowMachine: transferImage, AddProgramAt,
// WarmPageTable) against the functional tier that hands it over. At
// two positions of every suite workload, under the traditional,
// multithreaded and hardware mechanisms, the window machine's non-PAL
// retire stream must equal the engine's recorded stream over the same
// stretch, and after its last retirement its architectural registers
// and mapped memory must equal the engine's after the same
// instruction count. Sampled estimates rest on this hand-off, and a
// subject and its baseline take their windows from separate
// functional passes.
func TestWindowHandoff(t *testing.T) {
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	positions := []uint64{60_000, 150_000}
	const insts = 20_000
	for _, w := range benches {
		for _, mc := range []struct {
			mech     cpu.Mechanism
			contexts int
		}{
			{cpu.MechTraditional, 1},
			{cpu.MechMultithreaded, 2},
			{cpu.MechHardware, 1},
		} {
			cfg := core.DefaultConfig()
			cfg.Mech = mc.mech
			cfg.Contexts = mc.contexts
			img, err := w.Build(mem.NewPhysical(), 1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := fastpath.New(img, fastpath.Options{RecordTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range positions {
				if _, err := eng.FastForward(pos - eng.Steps()); err != nil || eng.Steps() != pos {
					t.Fatalf("%s: functional tier stopped at %d of %d insts: %v", w.Name(), eng.Steps(), pos, err)
				}
				m, err := core.WindowMachine(cfg, eng, insts)
				if err != nil {
					t.Fatalf("%s %s at %d: %v", w.Name(), mc.mech, pos, err)
				}
				var got []fastpath.Entry
				m.RetireHook = func(ri cpu.RetiredInst) {
					if ri.Tid == 0 && !ri.PAL {
						got = append(got, fastpath.Entry{PC: ri.PC, Op: ri.Op})
					}
				}
				res, err := m.RunUntil(insts)
				if err != nil {
					t.Fatalf("%s %s at %d: %v", w.Name(), mc.mech, pos, err)
				}
				regs, hash := m.ArchRegs(0), m.Space(0).ContentHash()

				// The window is done; only now may the engine move.
				if _, err := eng.FastForward(res.AppInsts); err != nil {
					t.Fatal(err)
				}
				want := eng.Trace()[pos:eng.Steps()]
				if uint64(len(got)) != res.AppInsts || len(want) != len(got) {
					t.Fatalf("%s %s at %d: window retired %d insts (%d in its stream), engine ran %d",
						w.Name(), mc.mech, pos, res.AppInsts, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s at %d: retired inst %d is pc=%#x op=%v, functional tier pc=%#x op=%v",
							w.Name(), mc.mech, pos, i, got[i].PC, got[i].Op, want[i].PC, want[i].Op)
					}
				}
				if er := eng.Regs(); regs != er {
					t.Errorf("%s %s at %d: registers after %d insts: %s",
						w.Name(), mc.mech, pos, res.AppInsts, regsDiff(regs, er))
				}
				if eh := img.Space.ContentHash(); hash != eh {
					t.Errorf("%s %s at %d: mapped-memory hash %#x after %d insts, functional tier %#x",
						w.Name(), mc.mech, pos, hash, res.AppInsts, eh)
				}
			}
		}
	}
}
