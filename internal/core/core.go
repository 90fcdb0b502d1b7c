// Package core is the public face of the simulator: it binds
// workloads to configured machines, runs them, and computes the
// paper's headline metric — penalty cycles per TLB miss, the run-time
// difference against a perfect-TLB baseline divided by the number of
// committed TLB fills (Section 3).
package core

import (
	"context"
	"fmt"

	"mtexc/internal/cpu"
	"mtexc/internal/mem"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
)

// Re-exported configuration surface, so downstream code (harness,
// examples, tools) programs against one package.
type (
	// Config parameterizes the simulated machine (Table 1).
	Config = cpu.Config
	// Result summarizes one simulation.
	Result = cpu.Result
	// Mechanism selects the exception architecture.
	Mechanism = cpu.Mechanism
	// LimitStudy selects a Table 3 limit study.
	LimitStudy = cpu.LimitStudy
	// Machine is the simulated CPU (exposed for advanced use).
	Machine = cpu.Machine
	// Probe publishes a running simulation's coarse progress for
	// concurrent readers (live telemetry). See cpu.Probe.
	Probe = cpu.Probe
)

// Exception architectures (Section 5.1).
const (
	MechPerfect       = cpu.MechPerfect
	MechTraditional   = cpu.MechTraditional
	MechMultithreaded = cpu.MechMultithreaded
	MechHardware      = cpu.MechHardware
)

// Limit studies (Table 3).
const (
	LimitNone         = cpu.LimitNone
	LimitNoExecBW     = cpu.LimitNoExecBW
	LimitNoWindow     = cpu.LimitNoWindow
	LimitNoFetchBW    = cpu.LimitNoFetchBW
	LimitInstantFetch = cpu.LimitInstantFetch
)

// DefaultConfig is the paper's base machine.
func DefaultConfig() Config { return cpu.DefaultConfig() }

// NewMachine builds a machine directly (advanced use; most callers
// should use Run).
func NewMachine(cfg Config) *Machine { return cpu.New(cfg) }

// Workload produces a loadable program image for one hardware
// context. Implementations must be deterministic for a given
// configuration so that mechanism comparisons run identical
// instruction streams.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Build constructs and loads the program into physical memory,
	// creating its address space under the given ASN.
	Build(phys *mem.Physical, asn uint8) (*vm.Image, error)
}

// Run simulates the given workloads (one hardware context each) on a
// machine configured by cfg.
func Run(cfg Config, workloads ...Workload) (Result, error) {
	return RunCtx(context.Background(), cfg, workloads...)
}

// RunCtx is Run with cancellation: the simulation aborts with a
// *cpu.CancelledError once ctx is done, carrying ctx.Err() as its
// cause, so errors.Is(err, context.DeadlineExceeded) identifies a
// timed-out run. The watchdog's *cpu.LivelockError passes through
// unchanged.
func RunCtx(ctx context.Context, cfg Config, workloads ...Workload) (Result, error) {
	return RunObserved(ctx, cfg, nil, workloads...)
}

// RunObserved is RunCtx with a live progress probe: when probe is
// non-nil the machine publishes cycle/retirement progress into it
// periodically, so a telemetry plane can watch the simulation from
// another goroutine. The probe is an observer only — attaching one
// changes no result, statistic or fingerprint.
func RunObserved(ctx context.Context, cfg Config, probe *Probe, workloads ...Workload) (Result, error) {
	if len(workloads) == 0 {
		return Result{}, fmt.Errorf("core: no workloads given")
	}
	m := cpu.New(cfg)
	if probe != nil {
		m.SetProbe(probe)
	}
	for i, w := range workloads {
		img, err := w.Build(m.Phys(), uint8(i+1))
		if err != nil {
			return Result{}, fmt.Errorf("core: building %s: %w", w.Name(), err)
		}
		if _, err := m.AddProgram(img); err != nil {
			return Result{}, fmt.Errorf("core: loading %s: %w", w.Name(), err)
		}
		// The paper measures from mid-execution checkpoints; start
		// with the page-table entries cache-warm accordingly.
		m.WarmPageTable(img.Space)
	}
	m.SetCancel(ctx)
	return m.Run()
}

// Snapshot assembles the machine-readable export of a completed run:
// configuration identity, every counter and histogram, the
// slot-accounting ledger, the per-miss latency breakdown and any
// interval series (see internal/obs for the schema).
func Snapshot(cfg Config, benchmarks []string, res Result) *obs.Snapshot {
	return obs.BuildSnapshot(Meta(cfg, benchmarks, res), res.Stats, res.Obs)
}

// Meta is a run's identity and totals, as a snapshot and a journal
// entry record them.
func Meta(cfg Config, benchmarks []string, res Result) obs.Meta {
	return obs.Meta{
		Benchmarks: benchmarks,
		Mechanism:  cfg.Mech.String(),
		QuickStart: cfg.QuickStart,
		Width:      cfg.Width,
		Window:     cfg.WindowSize,
		Contexts:   cfg.Contexts,
		DTLBSize:   cfg.DTLBEntries,
		Cycles:     res.Cycles,
		AppInsts:   res.AppInsts,
		DTLBMisses: res.DTLBMisses,
		IPC:        res.IPC,
	}
}

// Comparison holds a subject run and its perfect-TLB baseline over
// the same instruction stream.
type Comparison struct {
	Subject Result
	Perfect Result
}

// PenaltyPerMiss is the paper's metric: extra cycles relative to a
// perfect TLB, per committed TLB fill. Zero when the subject took no
// misses.
func (c Comparison) PenaltyPerMiss() float64 {
	if c.Subject.DTLBMisses == 0 {
		return 0
	}
	d := int64(c.Subject.Cycles) - int64(c.Perfect.Cycles)
	return float64(d) / float64(c.Subject.DTLBMisses)
}

// RelativeTLBTime is Figure 3's metric: the fraction of execution
// time attributable to TLB miss handling.
func (c Comparison) RelativeTLBTime() float64 {
	if c.Subject.Cycles == 0 {
		return 0
	}
	d := int64(c.Subject.Cycles) - int64(c.Perfect.Cycles)
	return float64(d) / float64(c.Subject.Cycles)
}

// PerfectOf derives the perfect-TLB baseline of a subject
// configuration whose machines each run threads application threads:
// the same machine with a TLB that never misses, one hardware context
// per application thread, and every field a perfect machine never
// reads reset to its DefaultConfig value. A perfect TLB never misses
// and never spawns a handler, so neither the idle contexts that exist
// only to host one nor the reset fields can move its cycles, and every
// subject that differs only in those shares one baseline; resetting to
// the defaults keeps a default-shaped subject's baseline what it was.
// Every other field — machine width, predictor, retire width, budgets,
// workload-facing switches — must match the subject's, or penalties
// would conflate mechanism cost with configuration differences. The
// harness's TestPerfectBaselineFilesEveryField files every field.
func PerfectOf(cfg Config, threads int) Config {
	def := DefaultConfig()
	cfg.Mech = MechPerfect
	cfg.Contexts = threads
	cfg.QuickStart = def.QuickStart
	cfg.Limit = def.Limit
	cfg.DTLBEntries = def.DTLBEntries
	cfg.DTLBWays = def.DTLBWays
	cfg.Handler = def.Handler
	cfg.MaxWalkers = def.MaxWalkers
	cfg.NoHandlerFetchPriority = def.NoHandlerFetchPriority
	cfg.NoWindowReservation = def.NoWindowReservation
	cfg.NoRelink = def.NoRelink
	cfg.EmulatePopc = def.EmulatePopc
	cfg.OSFaultCycles = def.OSFaultCycles
	if threads == 1 {
		cfg.FetchRoundRobin = def.FetchRoundRobin
	}
	return cfg
}

// Compare runs the workloads under cfg and under its perfect-TLB
// baseline (PerfectOf), pairing the results.
func Compare(cfg Config, workloads ...Workload) (Comparison, error) {
	subj, err := Run(cfg, workloads...)
	if err != nil {
		return Comparison{}, err
	}
	perf, err := Run(PerfectOf(cfg, len(workloads)), workloads...)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Subject: subj, Perfect: perf}, nil
}
