package diffsim

import (
	"context"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// TestWindowHandoff checks the state a sampled window machine starts
// from (core.WindowMachine: a clone of the run's pristine machine, the
// checkpoint's lent image, AddProgramAt, WarmPageTable) against the
// functional tier. Every suite workload runs one walk (core.Walk), and
// at each of its checkpoints the traditional, multithreaded and
// hardware mechanisms each build a window machine from the checkpoint,
// in the window machine the walk used last, whatever its
// configuration, as a sampled row's walk does. Each window machine's
// non-PAL retire stream must
// equal a separate engine's recorded stream over the same stretch,
// and after its last retirement its architectural registers and
// mapped memory must equal that engine's after the same instruction
// count. Sampled estimates rest on this hand-off.
func TestWindowHandoff(t *testing.T) {
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	spec := core.SampleSpec{Period: 60_000, Window: 20_000}
	for _, w := range benches {
		var cfgs []cpu.Config
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
			cfg.MaxInsts = 140_000
			cfgs = append(cfgs, cfg)
		}
		checkHandoff(t, w, spec, cfgs, false)
	}
}

// TestWindowHandoffGenerated is TestWindowHandoff over generated
// programs (gen.Program), whose fragments the suite lacks: page
// faults through the hard-exception path, and unaligned loads, which
// a program that has them also runs under the TrapUnaligned
// architecture, where the software mechanisms emulate them.
func TestWindowHandoffGenerated(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	var faults, unaligned int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := gen.Generate(seed, gen.Limits{})
		w, err := workload.ParseFuzz(workload.FuzzPrefix + p.Spec())
		if err != nil {
			t.Fatal(err)
		}
		archs := []bool{false}
		if p.HasUnaligned() {
			archs = append(archs, true)
			unaligned++
		}
		if p.Knobs.FaultPct > 0 {
			faults++
		}
		for _, unal := range archs {
			ref, err := NewRefRun(p, unal)
			if err != nil {
				t.Fatal(err)
			}
			// Checkpoints at 0 and 2w of a 4w pass: windows of w
			// instructions end well before the HALT near 5w, even when
			// emulated instructions do not count.
			window := ref.Res.Steps / 5
			if window == 0 {
				continue
			}
			spec := core.SampleSpec{Period: 2 * window, Warmup: window / 2, Window: window - window/2}
			var cfgs []cpu.Config
			for _, c := range Grid(p) {
				if c.Name != "perfect" && c.Name != "traditional" && c.Name != "multithreaded" && c.Name != "hardware" {
					continue // the grid's extras vary the page table and machine shape
				}
				// A pass has one architecture; perfect and hardware
				// complete unaligned loads in hardware under it.
				c.TrapUnaligned = unal
				cfg := c.Config(ref.Res.Steps)
				cfg.MaxInsts = 4 * window
				cfgs = append(cfgs, cfg)
			}
			checkHandoff(t, w, spec, cfgs, p.Knobs.FaultPct > 0)
		}
	}
	if faults == 0 || unaligned == 0 {
		t.Fatalf("%d programs with faults, %d with unaligned loads: the seeds no longer cover both", faults, unaligned)
	}
}

// checkHandoff walks w under spec and cfgs[0]'s budget and
// architecture, and checks the window machine of every configuration
// at every checkpoint, each made in the window machine before it,
// against a reference engine of its own, fast-forwarded to the
// checkpoint's position, that records its committed stream. Instructions the configuration emulates in a
// handler (skippable) run in the reference stream but never retire.
// The window's mapped memory must hash as the reference's does, or,
// where pagesOut holds (a program that pages out data), differ from
// it only by pages mapped ahead (pagedInAhead).
func checkHandoff(t *testing.T, w core.Workload, spec core.SampleSpec, cfgs []cpu.Config, pagesOut bool) {
	t.Helper()
	insts := spec.Warmup + spec.Window
	pristine := make([]*cpu.Machine, len(cfgs))
	for i, cfg := range cfgs {
		pristine[i] = core.NewMachine(core.WindowConfig(cfg, insts))
	}
	var spare *cpu.Machine
	positions := 0
	_, err := core.Walk(context.Background(), spec, w, cfgs[0], func(cp *core.Checkpoint) error {
		positions++
		for i, cfg := range cfgs {
			m, err := core.WindowMachine(pristine[i], cp, spare)
			if err != nil {
				t.Fatalf("%s %s at %d: %v", w.Name(), cfg.Mech, cp.Pos, err)
			}
			spare = m
			var got []fastpath.Entry
			m.RetireHook = func(ri cpu.RetiredInst) {
				if ri.Tid == 0 && !ri.PAL {
					got = append(got, fastpath.Entry{PC: ri.PC, Op: ri.Op})
				}
			}
			res, err := m.RunUntil(insts)
			if err != nil {
				t.Fatalf("%s %s at %d: %v", w.Name(), cfg.Mech, cp.Pos, err)
			}
			if res.AppInsts < insts || uint64(len(got)) != res.AppInsts {
				t.Fatalf("%s %s at %d: window retired %d of %d insts (%d in its stream)",
					w.Name(), cfg.Mech, cp.Pos, res.AppInsts, insts, len(got))
			}
			regs, space := m.ArchRegs(0), m.Space(0)

			eng, img := referenceAt(t, w, cfg, cp.Pos)
			if cp.PC != eng.PC() || cp.Regs != eng.Regs() {
				t.Fatalf("%s at %d: checkpoint pc %#x, registers %s; engine pc %#x",
					w.Name(), cp.Pos, cp.PC, regsDiff(cp.Regs, eng.Regs()), eng.PC())
			}
			step := func() fastpath.Entry {
				if n, err := eng.FastForward(1); n != 1 || err != nil {
					t.Fatalf("%s %s at %d: functional tier stopped after %d insts: %v",
						w.Name(), cfg.Mech, cp.Pos, eng.Steps(), err)
				}
				return eng.Trace()[len(eng.Trace())-1]
			}
			for k := 0; k < len(got); {
				switch e := step(); {
				case e == got[k]:
					k++
				case !skippable(e.Op, cfg):
					t.Fatalf("%s %s at %d: retired inst %d is pc=%#x op=%v, functional tier pc=%#x op=%v",
						w.Name(), cfg.Mech, cp.Pos, k, got[k].PC, got[k].Op, e.PC, e.Op)
				}
			}
			// A handler may have completed the emulation of the
			// instruction after the window's last retirement.
			if er := eng.Regs(); regs != er {
				if e := step(); !skippable(e.Op, cfg) || regs != eng.Regs() {
					t.Errorf("%s %s at %d: registers after %d insts: %s",
						w.Name(), cfg.Mech, cp.Pos, res.AppInsts, regsDiff(regs, er))
				}
			}
			if h, eh := space.ContentHash(), img.Space.ContentHash(); h != eh && !(pagesOut && pagedInAhead(space, img.Space)) {
				t.Errorf("%s %s at %d: mapped-memory hash %#x after %d insts, functional tier %#x",
					w.Name(), cfg.Mech, cp.Pos, h, res.AppInsts, eh)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if positions < 2 {
		t.Fatalf("%s: only %d checkpoints", w.Name(), positions)
	}
}

// referenceAt builds w afresh and runs it on a recording engine under
// cfg's architecture to pos.
func referenceAt(t *testing.T, w core.Workload, cfg cpu.Config, pos uint64) (*fastpath.Engine, *vm.Image) {
	t.Helper()
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(pos); err != nil || eng.Steps() != pos {
		t.Fatalf("%s: functional tier stopped at %d of %d insts: %v", w.Name(), eng.Steps(), pos, err)
	}
	return eng, img
}

// pagedInAhead reports whether the window's address space differs
// from the reference's only by pages the window's OS service mapped
// for an access that had not retired yet: every page the reference
// maps is mapped in the window with the same bytes, and every other
// page the window maps is a fresh zero page. Only a generated program
// that pages out data (gen.Knobs.FaultPct) has such pages.
func pagedInAhead(win, ref *vm.AddressSpace) bool {
	page := func(as *vm.AddressSpace, vpn uint64) *[mem.FrameSize]byte {
		pa, ok := as.Translate(vpn << vm.PageShift)
		if !ok {
			return nil
		}
		return as.Phys().View(pa)
	}
	same := true
	ref.ForEachMapped(func(vpn uint64) {
		if f := page(win, vpn); f == nil || *f != *page(ref, vpn) {
			same = false
		}
	})
	win.ForEachMapped(func(vpn uint64) {
		if page(ref, vpn) == nil && *page(win, vpn) != [mem.FrameSize]byte{} {
			same = false
		}
	})
	return same
}
