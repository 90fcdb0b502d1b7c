package cpu

import (
	"sync/atomic"

	"mtexc/internal/isa"
	"mtexc/internal/vm"
)

// Probe publishes a running machine's coarse progress for concurrent
// readers — the live-telemetry plane's view into a simulation that is
// otherwise a single-goroutine black box until it returns. StepCycle
// stores into it every cancelPollMask+1 cycles (and finish once more),
// so readers see values at most ~1k cycles stale. Every
// field is an atomic: a probe is typically handed to an observer
// before SetProbe copies the machine limits in, so even the
// "write-once" configuration mirrors need publication safety.
//
// A probe observes the run, it never participates in it: attaching
// one changes no simulation outcome, statistic or fingerprint, and
// publishing allocates nothing.
type Probe struct {
	// Cycles is the machine's current cycle number.
	Cycles atomic.Uint64
	// Retired is the application-instruction retirement count.
	Retired atomic.Uint64
	// LastProgress is the cycle of the most recent retirement — the
	// watchdog's notion of forward progress.
	LastProgress atomic.Uint64
	// Done is set once the run has returned (finish ran).
	Done atomic.Bool

	// MaxInsts and NoProgressLimit mirror the machine configuration
	// (written once by SetProbe) so readers can render retirement
	// percentage and watchdog slack without access to the Config.
	MaxInsts        atomic.Uint64
	NoProgressLimit atomic.Uint64
}

// publish stores the current progress triple. It runs inside the
// cycle loop's polling window, so it must stay alloc- and lock-free.
//
//mtexc:hotpath
func (p *Probe) publish(cycles, retired, lastProgress uint64) {
	p.Cycles.Store(cycles)
	p.Retired.Store(retired)
	p.LastProgress.Store(lastProgress)
}

// WatchdogSlack reports how many no-progress cycles remain before the
// livelock watchdog would fire, and whether a watchdog is armed.
func (p *Probe) WatchdogSlack() (slack uint64, armed bool) {
	limit := p.NoProgressLimit.Load()
	if limit == 0 {
		return 0, false
	}
	idle := p.Cycles.Load() - p.LastProgress.Load()
	if idle >= limit {
		return 0, true
	}
	return limit - idle, true
}

// SetProbe attaches a progress probe, copying the run-control limits
// into its configuration mirrors. Must be called before Run; nil
// detaches.
func (m *Machine) SetProbe(p *Probe) {
	if p != nil {
		p.MaxInsts.Store(m.cfg.MaxInsts)
		p.NoProgressLimit.Store(m.cfg.NoProgressLimit)
	}
	m.probe = p
}

// ArchRegs returns context tid's architectural register file: its
// registers as of the thread's last retired instruction. The simulator
// executes functionally at fetch along the predicted path, so the live
// file also holds the writes of every instruction still in flight;
// the copy returned has them undone from the squash journal, youngest
// first. Once HALT retires nothing is in flight. The
// differential-fuzzing oracle compares this against the reference
// emulator's final registers, and the sampled-window hand-off check
// against the functional tier's registers mid-run.
func (m *Machine) ArchRegs(tid int) isa.RegFile {
	t := &m.threads[tid]
	rf := t.rf
	for i := len(t.inflight) - 1; i >= 0; i-- {
		switch u := m.at(t.inflight[i]); u.slotKind {
		case slotInt:
			rf.Int[u.slotReg] = u.oldVal
		case slotFP:
			rf.FP[u.slotReg] = u.oldVal
		}
	}
	return rf
}

// Space returns context tid's address space: the loaded image's, or
// on a clone its copy over the clone's physical memory.
func (m *Machine) Space(tid int) *vm.AddressSpace { return m.threads[tid].as }

// ThreadHalted reports whether context tid has retired a HALT.
func (m *Machine) ThreadHalted(tid int) bool {
	return m.threads[tid].state == ctxHalted
}
