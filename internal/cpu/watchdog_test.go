package cpu

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mtexc/internal/diffsim/gen"
)

// livelockedMachine builds a machine with one context wedged in a
// synthetic livelock: the thread is runnable, so allHalted never
// breaks the cycle loop, but its fetch is halted with nothing in
// flight, so no instruction will ever retire — the shape of a real
// livelock (a wedged fetch redirect, a lost wakeup) as Run sees it.
func livelockedMachine(cfg Config) *Machine {
	m := New(cfg)
	m.threads[0].state = ctxRunning
	m.threads[0].haltedFetch = true
	return m
}

func TestWatchdogFiresOnLivelock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 1_000_000
	cfg.NoProgressLimit = 200

	res, err := livelockedMachine(cfg).Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run returned %v, want *LivelockError", err)
	}
	if ll.Cycle-ll.LastProgress <= cfg.NoProgressLimit {
		t.Errorf("fired after %d no-progress cycles, limit is %d", ll.Cycle-ll.LastProgress, cfg.NoProgressLimit)
	}
	if ll.Cycle > cfg.NoProgressLimit+16 {
		t.Errorf("fired at cycle %d, expected promptly after the %d-cycle limit", ll.Cycle, cfg.NoProgressLimit)
	}
	// The dump must describe the wedged machine: thread state and
	// window occupancy are the minimum a diagnosis needs.
	for _, want := range []string{"thread 0", "window 0/"} {
		if !strings.Contains(ll.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, ll.Dump)
		}
	}
	// The partial result still reports the cycles burned.
	if res.Cycles != ll.Cycle {
		t.Errorf("partial result cycles = %d, want %d", res.Cycles, ll.Cycle)
	}
}

func TestWatchdogDisabledRunsToMaxCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 5000
	cfg.NoProgressLimit = 0

	res, err := livelockedMachine(cfg).Run()
	if err != nil {
		t.Fatalf("Run with the watchdog disabled returned %v", err)
	}
	if res.Cycles != cfg.MaxCycles {
		t.Errorf("ran %d cycles, want the full MaxCycles %d", res.Cycles, cfg.MaxCycles)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	// A real workload with TLB misses retires through memory stalls
	// and handler runs; the default limit must never fire.
	cfg := testConfig()
	cfg.Mech = MechMultithreaded
	cfg.NoProgressLimit = DefaultConfig().NoProgressLimit
	setup, _ := pageWalkSetup(64)
	m := buildMachine(t, cfg, emitPageWalk(64, 4), setup)
	if _, err := m.Run(); err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

func TestCancelAbortsRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.MaxInsts = 1
	cfg.MaxCycles = 1_000_000
	cfg.NoProgressLimit = 0

	m := livelockedMachine(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetCancel(ctx)
	res, err := m.Run()
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("Run returned %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CancelledError cause is %v, want the context's %v", ce.Cause, context.Canceled)
	}
	if res.Cycles > cancelPollMask+1 {
		t.Errorf("cancellation observed only at cycle %d, poll interval is %d", res.Cycles, cancelPollMask+1)
	}
}

// TestRunUntilOnDoneMachine: a machine whose program has halted is
// Done, and running it again returns without stepping it.
func TestRunUntilOnDoneMachine(t *testing.T) {
	cfg := cloneTestConfig(MechMultithreaded, 2, false)
	p := gen.Generate(4200, gen.Limits{MaxPages: 64, NoFault: true, NoUnaligned: true})
	m, tid := buildGenMachine(t, cfg, p)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.ThreadHalted(tid) {
		t.Fatalf("program did not halt within cycle %d", m.Now())
	}
	now := m.Now()
	res, err := m.RunUntil(cfg.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Now() != now || res.Cycles != now {
		t.Errorf("RunUntil on a halted machine moved it from cycle %d to %d (result %d)", now, m.Now(), res.Cycles)
	}
}
