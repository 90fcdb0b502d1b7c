package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// cell identifies one (configuration × workload) grid point of an
// experiment while it runs. The first simulation the cell launches
// describes itself here, so a later panic or watchdog abort can be
// reported with the configuration that caused it.
type cell struct {
	index int
	exp   string
	tel   *telemetry.Cell // live-telemetry handle; nil when disabled (methods accept nil)
	row   *rowValues      // what the cell's grid row shares (forRows); nil outside a grid

	mu     sync.Mutex
	cfg    *core.Config
	loads  []string // workload names as mtexcsim -bench accepts them
	cores  int      // >1 when the subject is a shared-L2 cluster run
	sample string   // sampling spec of a sampled subject, "" otherwise
	key    string   // journal fingerprint of the subject simulation
}

// describe records the cell's subject simulation. Only the first call
// sticks: a cell's later runs (baselines, paired runs) refine nothing.
func (c *cell) describe(j job, key string) {
	c.mu.Lock()
	if c.cfg != nil {
		c.mu.Unlock()
		return
	}
	cfg := j.cfg
	c.cfg = &cfg
	c.loads = loadNames(j.loads)
	c.cores = 1
	if j.cluster {
		c.cores = len(j.loads)
	}
	if j.sample != nil {
		c.sample = j.sample.String()
	}
	c.key = key
	names := c.loads
	c.mu.Unlock()
	c.tel.Described(names, key)
}

// subjectKey returns the described subject fingerprint under the lock.
func (c *cell) subjectKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.key
}

// loadNames renders workloads the way mtexcsim's -bench flag accepts
// them: the paper's short abbreviation for benchmarks, the plain name
// otherwise.
func loadNames(loads []core.Workload) []string {
	names := make([]string, len(loads))
	for i, w := range loads {
		if b, ok := w.(*workload.Bench); ok {
			names[i] = b.Short()
		} else {
			names[i] = w.Name()
		}
	}
	return names
}

// panicError carries a recovered panic value and its stack as an
// error, so panics cross the worker-pool and baseline-cache
// boundaries without killing sibling cells.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// CellError reports one failed experiment cell: which experiment and
// grid point, the configuration and workloads it was simulating, the
// journal fingerprint, the panic stack when the failure was a panic,
// and the wrapped cause.
type CellError struct {
	// Experiment is the experiment function's name (Figure5, Table3…).
	Experiment string
	// Index is the flat forEach cell index.
	Index int
	// Config is the subject configuration, nil if the cell failed
	// before launching its first simulation.
	Config *core.Config
	// Workloads names the cell's workloads (mtexcsim -bench syntax).
	Workloads []string
	// Cores is the shared-L2 cluster width of the subject run; 0 or 1
	// means an ordinary single-machine simulation.
	Cores int
	// Sample is the sampling spec (period:warmup:window) of a sampled
	// subject, "" for a full cycle-accurate run.
	Sample string
	// Fingerprint is the subject simulation's journal key, "" if
	// unknown.
	Fingerprint string
	// Stack is the panic stack, nil when the failure was an ordinary
	// error.
	Stack []byte
	// Timeout is the per-cell deadline in effect when the cell failed
	// (Options.CellTimeout), zero when none was set. Repro includes it
	// when the cell died of it, so the command reproduces the timeout
	// classification, not just the simulation.
	Timeout time.Duration
	// Cause is the underlying failure.
	Cause error
}

func (e *CellError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s cell %d", e.Experiment, e.Index)
	if len(e.Workloads) > 0 && e.Config != nil {
		fmt.Fprintf(&sb, " [%s %s]", strings.Join(e.Workloads, ","), label(*e.Config))
	}
	fmt.Fprintf(&sb, ": %v", e.Cause)
	return sb.String()
}

// Unwrap exposes the cause for errors.Is/As.
func (e *CellError) Unwrap() error { return e.Cause }

// Repro renders a one-line mtexcsim command reproducing the cell's
// subject simulation, or "" when the cell never described itself.
// Features mtexcsim cannot express (limit studies, ablations,
// generalized-exception workloads) are appended as a comment so the
// line stays an honest starting point.
func (e *CellError) Repro() string {
	cfg := e.Config
	if cfg == nil {
		return ""
	}
	var sb strings.Builder
	idle := cfg.Contexts - len(e.Workloads)
	if e.Cores > 1 {
		// Cluster subjects load one workload per core, not one per
		// hardware context: core 0 is the measured benchmark, every
		// other core runs the co-runner.
		fmt.Fprintf(&sb, "mtexcsim -bench %s -cores %d", e.Workloads[0], e.Cores)
		if len(e.Workloads) > 1 {
			fmt.Fprintf(&sb, " -corunner %s", e.Workloads[1])
		}
		fmt.Fprintf(&sb, " -mech %s", cfg.Mech)
		idle = cfg.Contexts - 1
	} else {
		fmt.Fprintf(&sb, "mtexcsim -bench %s -mech %s", strings.Join(e.Workloads, ","), cfg.Mech)
	}
	fmt.Fprintf(&sb, " -idle %d -insts %d", idle, cfg.MaxInsts)
	fmt.Fprintf(&sb, " -width %d -window %d -depth %d -dtlb %d",
		cfg.Width, cfg.WindowSize, cfg.PipeDepth(), cfg.DTLBEntries)
	if cfg.QuickStart {
		sb.WriteString(" -quickstart")
	}
	if e.Sample != "" {
		fmt.Fprintf(&sb, " -sample %s", e.Sample)
	}
	// A cell that died by watchdog or deadline only reproduces under
	// the limits that killed it: carry the effective no-progress limit
	// whenever it differs from the default (or the watchdog actually
	// fired), and the wall-clock deadline when the cell timed out.
	var ll *cpu.LivelockError
	if cfg.NoProgressLimit != core.DefaultConfig().NoProgressLimit || errors.As(e.Cause, &ll) {
		fmt.Fprintf(&sb, " -noprogress %d", cfg.NoProgressLimit)
	}
	if e.Timeout > 0 && errors.Is(e.Cause, context.DeadlineExceeded) {
		fmt.Fprintf(&sb, " -cell-timeout %s", e.Timeout)
	}
	var extras []string
	if cfg.Limit != core.LimitNone {
		extras = append(extras, fmt.Sprintf("Limit=%d", cfg.Limit))
	}
	if cfg.EmulatePopc {
		extras = append(extras, "EmulatePopc")
	}
	if cfg.TrapUnaligned {
		extras = append(extras, "TrapUnaligned")
	}
	if cfg.PageTable != 0 {
		extras = append(extras, fmt.Sprintf("PageTable=%d", cfg.PageTable))
	}
	if cfg.NoHandlerFetchPriority || cfg.NoWindowReservation || cfg.NoRelink ||
		cfg.FetchRoundRobin || cfg.RetireWidth > 0 || cfg.DTLBWays > 0 ||
		cfg.BranchPredictor != "" {
		extras = append(extras, "ablations")
	}
	if len(extras) > 0 {
		fmt.Fprintf(&sb, "  # not expressible via flags: %s", strings.Join(extras, ", "))
	}
	return sb.String()
}

// ExperimentError aggregates an experiment's failed cells, lowest
// index first. The experiment's Table is still returned alongside it,
// with the failed cells rendered as FAIL.
type ExperimentError struct {
	Experiment string
	Cells      []*CellError
}

func (e *ExperimentError) Error() string {
	return fmt.Sprintf("%s: %d cell(s) failed (first: %v)", e.Experiment, len(e.Cells), e.Cells[0])
}

// markFailedCells renders every failed cell index through coord onto
// the table as FAIL. Experiments with derived grids pass a mapping
// that covers all table cells the failure poisons.
func markFailedCells(t *Table, err error, coord func(i int) [][2]int) {
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		return
	}
	for _, ce := range ee.Cells {
		if ce.Index < 0 {
			continue
		}
		for _, rc := range coord(ce.Index) {
			t.MarkFailed(rc[0], rc[1])
		}
	}
}

// one maps a failed cell to a single table coordinate.
func one(r, c int) [][2]int { return [][2]int{{r, c}} }

// FailCellEnv injects a panic into the named experiment cells, for
// resilience tests and the CI smoke: a comma-separated list of
// Experiment:index pairs, e.g. MTEXC_FAIL_CELL="Figure5:3,Table3:0".
const FailCellEnv = "MTEXC_FAIL_CELL"

// injectedFailure reports whether the environment asks this cell to
// fail. Parsed per forEach pass so tests can set the variable with
// t.Setenv.
func injectedFailure(exp string, spec string, i int) bool {
	for _, ent := range strings.Split(spec, ",") {
		name, idx, ok := strings.Cut(strings.TrimSpace(ent), ":")
		if !ok || name != exp {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(idx, "%d", &n); err == nil && n == i {
			return true
		}
	}
	return false
}

// failCellSpec reads the injection request once per forEach pass.
func failCellSpec() string { return os.Getenv(FailCellEnv) }
