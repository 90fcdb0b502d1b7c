// Package cpu implements the simulated machine: a dynamically
// scheduled, simultaneous-multithreading superscalar with the
// structure of the paper's Table 1, together with the four exception
// architectures the paper evaluates — a perfect TLB, traditional
// trap-based software TLB miss handling, multithreaded exception
// handling (the paper's contribution, with optional quick-start), and
// a hardware page-walker FSM.
//
// The simulator is execution-driven: instructions are functionally
// executed at fetch along the *predicted* path (so wrong-path
// instructions pollute the caches and TLB exactly as the paper
// describes), while a cycle-level timing model tracks fetch, decode,
// a shared instruction window, oldest-first issue across a finite
// functional-unit pool, and per-thread in-order retirement with the
// handler-splicing retirement order of Figure 1.
package cpu

import (
	"mtexc/internal/cache"
	"mtexc/internal/vm"
)

// Mechanism selects the exception architecture under evaluation.
type Mechanism int

// The four exception architectures of Section 5.1.
const (
	// MechPerfect models a TLB that never misses; it is the baseline
	// the penalty-cycles-per-miss metric differences against.
	MechPerfect Mechanism = iota
	// MechTraditional squashes from the faulting instruction onward,
	// fetches the handler into the faulting thread, and refetches the
	// application after RFE (two pipeline refills per miss).
	MechTraditional
	// MechMultithreaded runs the handler in an idle hardware context,
	// splicing it into the master thread's retirement stream.
	MechMultithreaded
	// MechHardware walks the page table with a finite-state machine
	// that competes for load/store ports and cache bandwidth.
	MechHardware
)

// String names the mechanism for reports.
func (m Mechanism) String() string {
	switch m {
	case MechPerfect:
		return "perfect"
	case MechTraditional:
		return "traditional"
	case MechMultithreaded:
		return "multithreaded"
	case MechHardware:
		return "hardware"
	}
	return "unknown"
}

// LimitStudy removes one overhead of the multithreaded mechanism, for
// the Table 3 limit studies.
type LimitStudy int

// Table 3 configurations.
const (
	LimitNone LimitStudy = iota
	// LimitNoExecBW: handler instructions consume no issue bandwidth
	// or functional units.
	LimitNoExecBW
	// LimitNoWindow: handler instructions occupy no window slots.
	LimitNoWindow
	// LimitNoFetchBW: handler fetch/decode consumes no shared
	// fetch/decode bandwidth.
	LimitNoFetchBW
	// LimitInstantFetch: handler instructions appear fully
	// fetched/decoded the cycle after the exception is detected.
	LimitInstantFetch
)

// Config parameterizes the core. DefaultConfig reproduces the
// paper's base machine.
//
// Config is journal-fingerprinted: the crash-safe resume journal keys
// simulations by sha256 over its %+v rendering, so every field — and
// every field of every struct it reaches — must be a pure value type.
// Pointers, funcs, chans, maps and interfaces render as addresses (or
// change shape run to run) and would silently destabilize the keys;
// runtime controls like cancellation belong on the Machine
// (SetCancel), never here. Enforced by mtexc-lint's fingerprintlint.
//
//mtexc:fingerprint
type Config struct {
	// Width is the shared fetch = decode = issue bandwidth.
	Width int
	// WindowSize is the centralized instruction window capacity.
	WindowSize int
	// FetchStages, DecodeStages, ScheduleStages, RegReadStages give
	// the nominal 7-stage fetch-to-execute front end (3+1+1+2).
	FetchStages    int
	DecodeStages   int
	ScheduleStages int
	RegReadStages  int
	// FetchBufferCap bounds each thread's fetched-but-not-decoded
	// buffer.
	FetchBufferCap int

	// Contexts is the number of hardware thread contexts.
	Contexts int

	// Functional units: counts and latencies per Table 1.
	IntALUs   int
	IntMuls   int // shared mul/div units
	FPAdds    int
	FPMuls    int
	FPDivs    int
	MemPorts  int
	LatIntALU uint64
	LatIntMul uint64
	LatIntDiv uint64
	LatFPAdd  uint64
	LatFPMul  uint64
	LatFPDiv  uint64
	LatFPSqrt uint64

	// Memory system and translation.
	Hier        cache.HierConfig
	DTLBEntries int
	// DTLBWays selects a set-associative DTLB organization; zero
	// means fully associative (the Table 1 default).
	DTLBWays int
	// PageTable selects the in-memory page-table organization; the
	// attached address spaces must be built to match.
	PageTable vm.PTOrg
	Handler   vm.HandlerConfig

	// Exception architecture.
	Mech Mechanism
	// QuickStart pre-stages the handler in an idle context's fetch
	// buffer (Section 5.4). Only meaningful with MechMultithreaded.
	QuickStart bool
	// MaxWalkers bounds concurrent hardware page walks.
	MaxWalkers int
	// Limit selects a Table 3 limit study (multithreaded only).
	Limit LimitStudy

	// Ablation switches (default-on behaviours from Section 4).
	NoHandlerFetchPriority bool // handler threads lose fetch priority
	NoWindowReservation    bool // no window-slot reservation for handlers
	NoRelink               bool // disable same-page out-of-order relinking
	// FetchRoundRobin replaces the ICOUNT fetch chooser with strict
	// round-robin over runnable threads (handler priority unchanged).
	FetchRoundRobin bool
	// BranchPredictor selects the direction predictor: "yags" (the
	// Table 1 default), "gshare" or "bimodal".
	BranchPredictor string
	// RetireWidth caps per-cycle retirement; zero means unlimited
	// (the paper's model).
	RetireWidth int

	// TrapUnaligned removes hardware support for unaligned integer
	// loads: they raise an unaligned-access exception serviced by the
	// software handler (Section 6's second example). Under MechPerfect
	// and MechHardware the access completes in hardware with one extra
	// cycle. Trapped accesses must not cross a page boundary.
	TrapUnaligned bool

	// EmulatePopc removes the POPC instruction from the hardware:
	// executing one raises an instruction-emulation exception handled
	// by the configured software mechanism (the paper's Section 6
	// generalized mechanism). Under MechPerfect and MechHardware the
	// instruction executes natively.
	EmulatePopc bool

	// OSFaultCycles models the page-fault service time charged when
	// a HARDEXC retires (hard exceptions / failure injection).
	OSFaultCycles uint64

	// CheckInvariants validates machine-structure invariants every
	// cycle, panicking on the first violation (test configurations).
	CheckInvariants bool

	// SampleInterval, when nonzero, attaches an interval sampler that
	// snapshots IPC, miss rate, window occupancy, handler activity
	// and per-thread in-flight counts every SampleInterval cycles
	// (Result.Obs.Sampler).
	SampleInterval uint64

	// Run control: the simulation stops when MaxInsts application
	// instructions have retired (across all application threads) or
	// at MaxCycles, whichever is first.
	MaxInsts  uint64
	MaxCycles uint64

	// NoProgressLimit arms the livelock watchdog: if no instruction
	// (application or handler) retires for this many cycles while a
	// context is still runnable, Run aborts with a LivelockError and
	// a machine dump instead of spinning to MaxCycles. Zero disables
	// the watchdog. The longest legitimate retirement gap is a
	// pipeline refill plus a memory-latency chain plus OS fault
	// service — hundreds of cycles — so the default leaves three
	// orders of magnitude of headroom.
	NoProgressLimit uint64
}

// DefaultConfig is the paper's Table 1 base machine: 8-wide, 128-entry
// window, 7 stages fetch-to-execute, 64-entry DTLB, 4 contexts.
func DefaultConfig() Config {
	return Config{
		Width:          8,
		WindowSize:     128,
		FetchStages:    3,
		DecodeStages:   1,
		ScheduleStages: 1,
		RegReadStages:  2,
		FetchBufferCap: 32,
		Contexts:       4,

		IntALUs:   8,
		IntMuls:   3,
		FPAdds:    3,
		FPMuls:    3,
		FPDivs:    1,
		MemPorts:  3,
		LatIntALU: 1,
		LatIntMul: 3,
		LatIntDiv: 12,
		LatFPAdd:  2,
		LatFPMul:  4,
		LatFPDiv:  12,
		LatFPSqrt: 26,

		Hier:        cache.DefaultHierConfig(),
		DTLBEntries: 64,
		Handler:     vm.DefaultHandlerConfig(),

		Mech:       MechMultithreaded,
		MaxWalkers: 8,

		OSFaultCycles: 500,

		MaxInsts:        1_000_000,
		MaxCycles:       50_000_000,
		NoProgressLimit: 1_000_000,
	}
}

// WithPipeDepth returns the configuration resized so that there are n
// stages between fetch and execute (the Figure 2 sweep uses 3, 7 and
// 11). Shallow machines shed schedule and register-read stages first,
// as short-pipe designs do; deep machines grow the fetch pipe.
func (c Config) WithPipeDepth(n int) Config {
	if n < 3 {
		n = 3
	}
	c.DecodeStages = 1
	if n >= 5 {
		c.ScheduleStages = 1
	} else {
		c.ScheduleStages = 0
	}
	if n >= 6 {
		c.RegReadStages = 2
	} else {
		c.RegReadStages = 1
	}
	f := n - c.DecodeStages - c.ScheduleStages - c.RegReadStages
	if f < 1 {
		f = 1
	}
	c.FetchStages = f
	return c
}

// PipeDepth reports the fetch-to-execute stage count.
func (c Config) PipeDepth() int {
	return c.FetchStages + c.DecodeStages + c.ScheduleStages + c.RegReadStages
}

// WithWidth returns the configuration scaled to a machine width (the
// Figure 3 sweep pairs width with window size: 2/32, 4/64, 8/128).
func (c Config) WithWidth(width, window int) Config {
	c.Width = width
	c.WindowSize = window
	// FU pool scales with width as in the paper's 8-wide baseline.
	c.IntALUs = width
	scaled := func(n int) int {
		v := n * width / 8
		if v < 1 {
			v = 1
		}
		return v
	}
	c.IntMuls = scaled(3)
	c.FPAdds = scaled(3)
	c.FPMuls = scaled(3)
	c.FPDivs = 1
	c.MemPorts = scaled(3)
	return c
}
