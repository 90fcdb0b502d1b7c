package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
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

// windowAt runs cfg's window at cp as a sampled run's first window
// there does.
func windowAt(ctx context.Context, cfg Config, cp *Checkpoint, spec SampleSpec) (WindowCounts, error) {
	runs := newWindowRuns(spec, []Config{cfg})
	if err := runWindows(ctx, cp, spec, runs); err != nil {
		return WindowCounts{}, err
	}
	return runs[0].windows[0], nil
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

// TestWindowsLeaveCheckpointUntouched: every window machine of a
// sampling position borrows the image the checkpoint rebuilt for it,
// which borrows the checkpoint's frames, both copy-on-write, so no
// window's stores may reach either: not the checkpoint's pages, and
// not the image's page-table and code frames. compress stores into
// its data pages inside every window; a workload that only loads
// would pass even if the frames were aliased outright, and so would
// the window statistics, which do not read memory back. Figure 5's
// five configurations start at one frame, so the checkpoint builds
// one image for them.
func TestWindowsLeaveCheckpointUntouched(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	cfgs := windowConfigs(120_000)
	cp := checkpointOf(t, "cmp", cfgs[0], spec, 100_000)
	want := cp.Image.Space.ContentHash()
	start := NewMachine(cfgs[0]).Phys().NextFree()
	img, err := cp.windowImage(start)
	if err != nil {
		t.Fatal(err)
	}
	frames := framesOf(t, img.Space.Phys(), start)
	for _, c := range cfgs {
		ws, err := windowAt(context.Background(), c, cp, spec)
		if err != nil {
			t.Fatalf("%s window: %v", c.Mech, err)
		}
		if ws.Insts == 0 {
			t.Fatalf("%s window retired nothing", c.Mech)
		}
		if got := cp.Image.Space.ContentHash(); got != want {
			t.Fatalf("%s window changed the checkpoint's memory: hash %#x, want %#x", c.Mech, got, want)
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
	pass, err := FunctionalPass(context.Background(), spec, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pristine := NewMachine(WindowConfig(cfg, spec.Period))
	return func() *Machine {
		m, err := WindowMachine(pristine, pass.Checkpoints[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runDetailedWindow(context.Background(), m, pass.Checkpoints[0], spec); err == nil || !strings.Contains(err.Error(), "covered") {
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
// each of windowConfigs' five configurations at two checkpoints, on
// three kinds of spare: one that finished the window at the other
// checkpoint, one a done context cancelled mid-window there, and one
// of another configuration that failed runDetailedWindow's period
// check, and with no spare, as a run's first window. Each window must
// match the fresh machine's counts, final
// stats and obs snapshot, registers and memory contents. A spare whose
// caches or predictor tables the clone did not overwrite would show
// in the cycles.
func TestRecycledWindowMatchesFresh(t *testing.T) {
	spec := SampleSpec{Period: 20_000, Warmup: 2_000, Window: 3_000}
	detail := spec.Warmup + spec.Window
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	overran := overrunSpare(t)
	ctx := context.Background()
	for _, w := range benches {
		cfgs := windowConfigs(60_000)
		pass, err := FunctionalPass(ctx, spec, w, cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		cps := pass.Checkpoints[1:3]
		for _, cfg := range cfgs {
			pristine := NewMachine(WindowConfig(cfg, detail))
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
						m, err := WindowMachine(pristine, other, nil)
						if err != nil {
							t.Fatal(err)
						}
						runWindowOn(t, m, cfg, other, spec)
						return m
					}},
					{"cancelled", func() *Machine {
						m, err := WindowMachine(pristine, other, nil)
						if err != nil {
							t.Fatal(err)
						}
						var ce *cpu.CancelledError
						if _, err := runDetailedWindow(&cancelAfter{Context: ctx, n: 2}, m, other, spec); !errors.As(err, &ce) {
							t.Fatalf("%s %s at %d: window returned %v, want it cancelled mid-window", w.Name(), cfg.Mech, other.Pos, err)
						}
						return m
					}},
					{"overran", overran},
					{"no", func() *Machine { return nil }},
				}
				for _, sp := range spares {
					spare := sp.make()
					m, err := WindowMachine(pristine, cp, spare)
					if err != nil {
						t.Fatal(err)
					}
					if spare != nil && m != spare {
						t.Fatalf("%s %s at %d: the window machine was not made in the %s spare", w.Name(), cfg.Mech, cp.Pos, sp.kind)
					}
					got := runWindowOn(t, m, cfg, cp, spec)
					name := w.Name() + " " + cfg.Mech.String() + " (" + sp.kind + " spare)"
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
		if alone[i], err = windowAt(context.Background(), c, cp, spec); err != nil {
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
			got[i], errs[i] = windowAt(context.Background(), c, cp, spec)
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
