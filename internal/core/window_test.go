package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/fastpath"
	"mtexc/internal/isa"
	"mtexc/internal/mem"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// checkpointOf runs w on an engine of its own under cfg's
// architecture to pos and returns the checkpoint a walk would hand
// its windows there. Nothing runs the engine on, so the checkpoint
// holds for as long as the test keeps it.
func checkpointOf(t *testing.T, w Workload, cfg Config, pos uint64) *Checkpoint {
	t.Helper()
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.FastForward(pos); n != pos || err != nil {
		t.Fatalf("%s: functional tier stopped at %d of %d insts: %v", w.Name(), n, pos, err)
	}
	return &Checkpoint{Pos: pos, PC: eng.PC(), Regs: eng.Regs(), Image: img}
}

// windowConfigs are Figure 5's four mechanisms and their shared
// perfect-TLB baseline, the five configurations a sampled row runs
// over one walk.
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

// framesOf copies every frame phys holds or will hand out from first,
// its first frame, to its next free one. It reads them through a
// memory that borrows them (mem.Physical.BorrowAll), so reading
// creates no frame in phys.
func framesOf(t *testing.T, phys *mem.Physical, first uint64) [][mem.FrameSize]byte {
	t.Helper()
	reader := mem.NewPhysicalAt(first)
	if err := reader.BorrowAll(phys); err != nil {
		t.Fatal(err)
	}
	var out [][mem.FrameSize]byte
	for fn := first; fn < reader.NextFree(); fn++ {
		out = append(out, *reader.View(fn << mem.FrameShift))
	}
	return out
}

// TestWindowsLeaveCheckpointUntouched: at a position of a walk,
// every window machine borrows the image the checkpoint rebuilt for
// it, which borrows the engine's own frames, both copy-on-write, so
// no window's stores may reach either: not the engine's pages, which
// it goes on running over, and not the image's page-table and code
// frames. compress stores into its data pages inside every window; a
// workload that only loads would pass even if the frames were aliased
// outright, and so would the window statistics, which do not read
// memory back. Figure 5's five configurations run there as a walk
// runs them, each window machine made in the one before, and start at
// one frame, so the checkpoint builds one image for them.
func TestWindowsLeaveCheckpointUntouched(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	cfgs := windowConfigs(120_000)
	w, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	start := NewMachine(cfgs[0]).Phys().NextFree()
	ctx := context.Background()
	visited := false
	_, err = Walk(ctx, spec, w, cfgs[0], func(cp *Checkpoint) error {
		if cp.Pos != 100_000 {
			return nil
		}
		visited = true
		want := cp.Image.Space.ContentHash()
		img, err := cp.windowImage(start)
		if err != nil {
			return err
		}
		frames := framesOf(t, img.Space.Phys(), start)
		var spare *Machine
		for _, c := range cfgs {
			m, err := WindowMachine(NewMachine(WindowConfig(c, spec.Warmup+spec.Window)), cp, spare)
			if err != nil {
				return err
			}
			spare = m
			ws, err := runDetailedWindow(ctx, m, cp, spec)
			if err != nil {
				t.Fatalf("%s window: %v", c.Mech, err)
			}
			if ws.Insts == 0 {
				t.Fatalf("%s window retired nothing", c.Mech)
			}
			if got := cp.Image.Space.ContentHash(); got != want {
				t.Fatalf("%s window changed the engine's memory: hash %#x, want %#x", c.Mech, got, want)
			}
			got := framesOf(t, img.Space.Phys(), start)
			if len(got) != len(frames) {
				t.Fatalf("%s window changed the window image's frame count: %d, want %d", c.Mech, len(got), len(frames))
			}
			for i := range got {
				if got[i] != frames[i] {
					t.Fatalf("%s window changed frame %d of the window image", c.Mech, start+uint64(i))
				}
			}
		}
		if len(cp.windows) != 1 || cp.windows[start] != img {
			t.Errorf("the checkpoint built %d window images for Figure 5's configurations, want the one at frame %d", len(cp.windows), start)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !visited {
		t.Fatal("the walk handed out no checkpoint at 100000 insts")
	}
}

// cancelAfter is a context that is done once it has been polled n
// times, so a window machine polling it stops mid-window.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// windowEnd is what a window leaves behind: its counts, the final
// stats and obs snapshot of its machine, its registers and its
// address space.
type windowEnd struct {
	counts WindowCounts
	snap   []byte
	regs   isa.RegFile
	space  *vm.AddressSpace
}

// runWindowOn runs cfg's window at cp on m and returns what it leaves.
func runWindowOn(t *testing.T, m *Machine, cfg Config, cp *Checkpoint, spec SampleSpec) windowEnd {
	t.Helper()
	wc, err := runDetailedWindow(context.Background(), m, cp, spec)
	if err != nil {
		t.Fatalf("%s at %d: %v", cfg.Mech, cp.Pos, err)
	}
	var snap bytes.Buffer
	if err := obs.WriteJSON(&snap, Snapshot(cfg, nil, m.Finish())); err != nil {
		t.Fatal(err)
	}
	return windowEnd{counts: wc, snap: snap.Bytes(), regs: m.ArchRegs(0), space: m.Space(0)}
}

// overrunSpare returns a maker of window machines that failed
// runDetailedWindow's period check: generated program 7's first window
// under TrapUnaligned, whose emulated loads carry it past a period of
// exactly Warmup+Window (TestWindowPastPeriodFails).
func overrunSpare(t *testing.T) func() *Machine {
	t.Helper()
	p := gen.Generate(7, gen.Limits{})
	w, err := workload.ParseFuzz(workload.FuzzPrefix + p.Spec())
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FastForward(1 << 20); err != nil {
		t.Fatal(err)
	}
	window := eng.Steps() / 5
	cfg := DefaultConfig()
	cfg.Mech = MechMultithreaded
	cfg.Contexts = 2
	cfg.TrapUnaligned = true
	cfg.MaxInsts = 4 * window
	spec := SampleSpec{Period: window, Warmup: window / 2, Window: window - window/2}
	cp := checkpointOf(t, w, cfg, 0)
	pristine := NewMachine(WindowConfig(cfg, spec.Period))
	return func() *Machine {
		m, err := WindowMachine(pristine, cp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runDetailedWindow(context.Background(), m, cp, spec); err == nil || !strings.Contains(err.Error(), "covered") {
			t.Fatalf("generated program 7's window returned %v, want it to overrun its period", err)
		}
		return m
	}
}

// TestRecycledWindowMatchesFresh: a window machine cloned from its
// run's pristine machine into a used one, over the image its
// checkpoint lends (WindowMachine), runs its window exactly as a
// machine New builds, with the checkpoint's image rebuilt in its own
// memory (transferImage), runs it. Every suite workload runs under
// each of windowConfigs' five configurations at two positions, on
// three kinds of spare of another configuration, as a walk makes each
// window machine in the one before: the machine of the configuration
// before that finished its window at the other position, one a done
// context cancelled mid-window there, and one that failed
// runDetailedWindow's period check on another program; and with no
// spare, as a walk's first window. Each window must match the fresh
// machine's counts, final stats and obs snapshot, registers and
// memory contents. A spare whose caches, predictor tables or
// statistics the clone did not overwrite would show.
func TestRecycledWindowMatchesFresh(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	detail := spec.Warmup + spec.Window
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	overran := overrunSpare(t)
	ctx := context.Background()
	cfgs := windowConfigs(60_000)
	pristine := make([]*Machine, len(cfgs))
	for k, cfg := range cfgs {
		pristine[k] = NewMachine(WindowConfig(cfg, detail))
	}
	for _, w := range benches {
		cps := []*Checkpoint{checkpointOf(t, w, cfgs[0], 20_000), checkpointOf(t, w, cfgs[0], 40_000)}
		for k, cfg := range cfgs {
			prev := (k + len(cfgs) - 1) % len(cfgs)
			for i, cp := range cps {
				other := cps[1-i]
				fresh := NewMachine(WindowConfig(cfg, detail))
				img, err := transferImage(cp.Image, fresh.Phys())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.AddProgramAt(img, cp.PC, cp.Regs); err != nil {
					t.Fatal(err)
				}
				fresh.WarmPageTable(img.Space)
				want := runWindowOn(t, fresh, cfg, cp, spec)

				spares := []struct {
					kind string
					make func() *Machine
				}{
					{"finished", func() *Machine {
						m, err := WindowMachine(pristine[prev], other, nil)
						if err != nil {
							t.Fatal(err)
						}
						runWindowOn(t, m, cfgs[prev], other, spec)
						return m
					}},
					{"cancelled", func() *Machine {
						m, err := WindowMachine(pristine[prev], other, nil)
						if err != nil {
							t.Fatal(err)
						}
						var ce *cpu.CancelledError
						if _, err := runDetailedWindow(&cancelAfter{Context: ctx, n: 2}, m, other, spec); !errors.As(err, &ce) {
							t.Fatalf("%s %s at %d: window returned %v, want it cancelled mid-window", w.Name(), cfgs[prev].Mech, other.Pos, err)
						}
						return m
					}},
					{"overran", overran},
					{"no", func() *Machine { return nil }},
				}
				for _, sp := range spares {
					spare := sp.make()
					m, err := WindowMachine(pristine[k], cp, spare)
					if err != nil {
						t.Fatal(err)
					}
					if spare != nil && m != spare {
						t.Fatalf("%s %s at %d: the window machine was not made in the %s spare", w.Name(), cfg.Mech, cp.Pos, sp.kind)
					}
					got := runWindowOn(t, m, cfg, cp, spec)
					name := fmt.Sprintf("%s %s(%d) (%s spare)", w.Name(), cfg.Mech, cfg.Contexts, sp.kind)
					switch {
					case got.counts != want.counts:
						t.Errorf("%s at %d: window %+v, fresh %+v", name, cp.Pos, got.counts, want.counts)
					case !bytes.Equal(got.snap, want.snap):
						t.Errorf("%s at %d: final snapshot differs from the fresh machine's", name, cp.Pos)
					case got.regs != want.regs:
						t.Errorf("%s at %d: registers differ from the fresh machine's", name, cp.Pos)
					case !got.space.EqualContent(want.space):
						t.Errorf("%s at %d: memory differs from the fresh machine's", name, cp.Pos)
					}
				}
			}
		}
	}
}
