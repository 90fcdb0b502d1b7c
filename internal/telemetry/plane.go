package telemetry

import (
	"sync"
	"time"

	"mtexc/internal/cpu"
	"mtexc/internal/stats"
)

// Plane bundles the live telemetry surfaces of one process: the
// metrics registry, the structured event log, the in-flight cell
// tracker, and the run-trace aggregator. Every harness-facing hook is
// safe on a nil *Plane (and nil *Cell), so instrumented code carries
// no telemetry conditionals — a disabled plane is a nil check per
// call site, no allocations, no atomics, no time reads.
//
// Telemetry observes the run, it never participates: nothing here
// feeds back into simulation results, table bytes or fingerprints.
type Plane struct {
	Reg    *Registry
	Events *Log // may be nil: metrics without an event log
	Cells  *Tracker
	Trace  *RunTrace // may be nil: no run trace requested

	m planeMetrics
}

// planeMetrics holds the pre-registered harness instruments.
type planeMetrics struct {
	cellsStarted *Counter
	cellsByEnd   map[string]*Counter // finish status → counter
	cellsResumed *Counter

	journalHits    *Counter
	journalAppends *Counter
	journalIO      *Histogram // append latency, µs samples → seconds

	baselineRuns *Counter
	baselineWait *Histogram // singleflight wait, µs samples → seconds

	livelocks *Counter

	sims      *Counter
	finInsts  *Counter // retired app insts of finished simulations
	finCycles *Counter

	cellDur     *Histogram // cell wall-clock, µs samples → seconds
	missLatency *Histogram // merged span.detect2retire, cycles
}

// cellEndStatuses are the recognized cell-finish classifications;
// anything else folds into "fail".
var cellEndStatuses = []string{"ok", "fail", "panic", "timeout", "livelock"}

// NewPlane builds a plane with its harness metrics pre-registered, so
// a scrape taken before the first cell still shows the full catalog.
// Attach an event log and a run trace by setting Events and Trace
// before the run starts.
func NewPlane() *Plane {
	reg := NewRegistry()
	p := &Plane{Reg: reg, Cells: NewTracker()}
	m := &p.m
	m.cellsStarted = reg.Counter("mtexc_cells_started_total",
		"Experiment cells started.")
	m.cellsByEnd = make(map[string]*Counter, len(cellEndStatuses))
	for _, st := range cellEndStatuses {
		m.cellsByEnd[st] = reg.Counter("mtexc_cells_finished_total",
			"Experiment cells finished, by outcome.", Label{"status", st})
	}
	m.cellsResumed = reg.Counter("mtexc_cells_resumed_total",
		"Subject simulations answered from the resume journal.")
	m.journalHits = reg.Counter("mtexc_journal_hits_total",
		"Simulations answered from the journal (resume or cross-experiment dedupe).")
	m.journalAppends = reg.Counter("mtexc_journal_appends_total",
		"Completed simulations appended to the journal.")
	m.journalIO = reg.Histogram("mtexc_journal_append_seconds",
		"Journal append latency.", 1e6)
	m.baselineRuns = reg.Counter("mtexc_baseline_runs_total",
		"Perfect-TLB baseline simulations executed (journal answers excluded).")
	m.baselineWait = reg.Histogram("mtexc_baseline_wait_seconds",
		"Wall-clock time cells spent waiting on the baseline singleflight.", 1e6)
	m.livelocks = reg.Counter("mtexc_watchdog_livelocks_total",
		"Simulations aborted by the retirement-progress watchdog.")
	m.sims = reg.Counter("mtexc_sims_total",
		"Simulations launched (subjects and baselines, journal hits excluded).")
	m.finInsts = reg.Counter("mtexc_sim_insts_finished_total",
		"Application instructions retired by finished simulations.")
	m.finCycles = reg.Counter("mtexc_sim_cycles_finished_total",
		"Cycles simulated by finished simulations.")
	m.cellDur = reg.Histogram("mtexc_cell_duration_seconds",
		"Wall-clock duration of finished cells.", 1e6)
	m.missLatency = reg.Histogram("mtexc_miss_latency_cycles",
		"Per-miss detect-to-retire latency, merged over finished simulations.", 1)

	reg.GaugeFunc("mtexc_cells_inflight",
		"Experiment cells currently running.",
		func() float64 { return float64(p.Cells.Len()) })
	reg.GaugeFunc("mtexc_watchdog_slack_ratio_min",
		"Tightest live watchdog margin as a fraction of its limit (1 = all healthy).",
		func() float64 { return p.Cells.MinWatchdogSlackRatio() })
	// Live totals stay monotonic across the finished/in-flight
	// handoff via a high-water mark.
	reg.CounterFunc("mtexc_sim_insts_total",
		"Application instructions retired, including live in-flight progress.",
		monotonic(func() float64 {
			_, live := p.Cells.LiveProgress()
			return float64(m.finInsts.Value() + live)
		}))
	reg.CounterFunc("mtexc_sim_cycles_total",
		"Cycles simulated, including live in-flight progress.",
		monotonic(func() float64 {
			live, _ := p.Cells.LiveProgress()
			return float64(m.finCycles.Value() + live)
		}))
	reg.Gauge("mtexc_run_start_time_seconds",
		"Unix time the telemetry plane was created.").
		Set(float64(time.Now().UnixNano()) / 1e9)
	return p
}

// monotonic clamps a scrape-time function to be non-decreasing, so
// transient handoffs (a simulation moving from live probes into the
// finished counters) can never make a counter step backwards.
func monotonic(fn func() float64) func() float64 {
	var mu sync.Mutex
	var hi float64
	return func() float64 {
		v := fn()
		mu.Lock()
		if v > hi {
			hi = v
		}
		v = hi
		mu.Unlock()
		return v
	}
}

// RunStarted logs the run.start event.
func (p *Plane) RunStarted(detail string) {
	if p == nil {
		return
	}
	p.Events.Emit(Event{Type: "run.start", Detail: detail})
}

// RunFinished logs the run.finish event with the final tallies.
func (p *Plane) RunFinished(status string, durMS float64) {
	if p == nil {
		return
	}
	p.Events.Emit(Event{Type: "run.finish", Status: status, DurMS: durMS})
}

// Cell is the plane's handle on one in-flight experiment cell. All
// methods are safe on a nil receiver.
type Cell struct {
	p     *Plane
	st    *CellState
	start time.Time
}

// CellStarted registers a cell with the tracker, counts it, and logs
// cell.start. Returns nil on a nil plane.
func (p *Plane) CellStarted(exp string, index, worker int) *Cell {
	if p == nil {
		return nil
	}
	st := &CellState{Exp: exp, Index: index, Worker: worker}
	st.phase = "queued"
	st.startedAt = time.Now()
	p.Cells.add(st)
	p.m.cellsStarted.Inc()
	p.Events.Emit(Event{Type: "cell.start", Experiment: exp, Cell: index, Worker: worker})
	return &Cell{p: p, st: st, start: st.startedAt}
}

// Described records the cell's subject simulation identity (first
// call wins, matching harness cell semantics).
func (c *Cell) Described(workloads []string, fingerprint string) {
	if c == nil {
		return
	}
	c.st.mu.Lock()
	if c.st.fingerprint == "" {
		c.st.workloads = append([]string(nil), workloads...)
		c.st.fingerprint = fingerprint
	}
	c.st.mu.Unlock()
}

// Phase updates the cell's live phase label (sim, baseline,
// baseline-wait, journal).
func (c *Cell) Phase(phase string) {
	if c == nil {
		return
	}
	c.st.mu.Lock()
	c.st.phase = phase
	c.st.mu.Unlock()
}

// ResumeHit counts and logs a subject simulation answered from the
// resume journal.
func (c *Cell) ResumeHit(fingerprint string) {
	if c == nil {
		return
	}
	c.p.m.cellsResumed.Inc()
	c.p.m.journalHits.Inc()
	c.st.mu.Lock()
	exp, idx := c.st.Exp, c.st.Index
	c.st.sims++
	c.st.mu.Unlock()
	c.p.Events.Emit(Event{Type: "cell.resume", Experiment: exp, Cell: idx,
		Fingerprint: fingerprint})
}

// JournalHit counts a journal answer that is not a resumed subject: a
// baseline read from the journal's file, or a subject an earlier job
// of the run already simulated.
func (c *Cell) JournalHit() {
	if c == nil {
		return
	}
	c.p.m.journalHits.Inc()
}

// SimStarted registers a launching simulation and returns the
// progress probe to attach to it (nil on a nil receiver, which
// core.RunObserved treats as "unobserved"). phase labels what the
// simulation is (sim, baseline).
func (c *Cell) SimStarted(phase string) *cpu.Probe {
	if c == nil {
		return nil
	}
	probe := &cpu.Probe{}
	now := time.Now()
	c.st.mu.Lock()
	c.st.phase = phase
	c.st.probe = probe
	c.st.simStart = now
	c.st.sims++
	exp, idx := c.st.Exp, c.st.Index
	c.st.mu.Unlock()
	c.p.m.sims.Inc()
	c.p.Events.Emit(Event{Type: "sim.start", Level: LevelDebug,
		Experiment: exp, Cell: idx, Phase: phase})
	return probe
}

// SimFinished folds a finished simulation into the fleet metrics:
// cycle/instruction totals move from the live probe into the finished
// counters, the per-miss latency histogram is merged, and the span is
// recorded on the cell's worker lane of the run trace.
func (c *Cell) SimFinished(insts, cycles uint64, set *stats.Set, failed bool) {
	if c == nil {
		return
	}
	now := time.Now()
	// Finished counters first, probe detached second: the handoff can
	// transiently double-count but never undercount, and the exported
	// totals are clamped monotonic.
	c.p.m.finInsts.Add(insts)
	c.p.m.finCycles.Add(cycles)
	c.st.mu.Lock()
	c.st.probe = nil
	start := c.st.simStart
	phase := c.st.phase
	exp, idx, worker := c.st.Exp, c.st.Index, c.st.Worker
	loads := c.st.workloads
	c.st.mu.Unlock()
	if set != nil {
		if h, ok := set.Hist("span.detect2retire"); ok {
			c.p.m.missLatency.Merge(h)
		}
	}
	status := "ok"
	if failed {
		status = "fail"
	}
	c.p.Events.Emit(Event{Type: "sim.finish", Level: LevelDebug,
		Experiment: exp, Cell: idx, Phase: phase, Status: status,
		DurMS: now.Sub(start).Seconds() * 1e3, Insts: insts, Cycles: cycles})
	c.p.Trace.add(laneName(worker), simSpanName(exp, idx, loads), phase,
		start, now, map[string]any{"exp": exp, "cell": idx, "insts": insts, "cycles": cycles})
}

// simSpanName labels a run-trace simulation span.
func simSpanName(exp string, idx int, loads []string) string {
	name := exp
	if len(loads) > 0 {
		name += " " + loads[0]
		for _, l := range loads[1:] {
			name += "-" + l
		}
	}
	return name
}

// BaselineWaitBegin marks the cell as blocked on the baseline
// singleflight; call the returned func when the wait ends. The wait
// is charged to the baseline-wait summary and drawn on the run trace
// only when it crossed a worker-visible threshold (>1ms), so winners
// who computed the baseline themselves don't register phantom waits.
func (c *Cell) BaselineWaitBegin() func() {
	if c == nil {
		return nopEnd
	}
	start := time.Now()
	c.Phase("baseline-wait")
	return func() {
		end := time.Now()
		c.p.m.baselineWait.Observe(end.Sub(start).Microseconds())
		if end.Sub(start) > time.Millisecond {
			c.st.mu.Lock()
			exp, idx, worker := c.st.Exp, c.st.Index, c.st.Worker
			c.st.mu.Unlock()
			c.p.Trace.add(laneName(worker), "baseline wait", "baseline-wait",
				start, end, map[string]any{"exp": exp, "cell": idx})
		}
	}
}

// BaselineRan counts a baseline simulation this cell actually
// executed: it won the singleflight and the journal held no answer.
func (c *Cell) BaselineRan() {
	if c == nil {
		return
	}
	c.p.m.baselineRuns.Inc()
}

// JournalAppendBegin times one journal append; call the returned func
// when the write completes.
func (c *Cell) JournalAppendBegin() func() {
	if c == nil {
		return nopEnd
	}
	start := time.Now()
	return func() {
		end := time.Now()
		c.p.m.journalAppends.Inc()
		c.p.m.journalIO.Observe(end.Sub(start).Microseconds())
		if end.Sub(start) > time.Millisecond {
			c.st.mu.Lock()
			worker := c.st.Worker
			c.st.mu.Unlock()
			c.p.Trace.add(laneName(worker), "journal append", "journal", start, end, nil)
		}
	}
}

// nopEnd is the shared no-op closure nil cells hand out, so disabled
// telemetry allocates nothing per call.
var nopEnd = func() {}

// CellFinished deregisters the cell, classifies its outcome, and
// logs the closing event. status must be one of cellEndStatuses
// (anything else counts as fail). errMsg carries the failure text.
func (c *Cell) CellFinished(status, errMsg string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.p.Cells.remove(c.st)
	ctr := c.p.m.cellsByEnd[status]
	if ctr == nil {
		ctr = c.p.m.cellsByEnd["fail"]
		status = "fail"
	}
	ctr.Inc()
	if status == "livelock" {
		c.p.m.livelocks.Inc()
	}
	durMS := now.Sub(c.start).Seconds() * 1e3
	c.p.m.cellDur.Observe(now.Sub(c.start).Microseconds())
	c.st.mu.Lock()
	exp, idx, worker := c.st.Exp, c.st.Index, c.st.Worker
	loads, fp := c.st.workloads, c.st.fingerprint
	c.st.mu.Unlock()
	level := LevelInfo
	typ := "cell.finish"
	switch status {
	case "ok":
	case "timeout":
		level, typ = LevelWarn, "cell.timeout"
	case "panic":
		level, typ = LevelError, "cell.panic"
	default:
		level = LevelError
	}
	c.p.Events.Emit(Event{Type: typ, Level: level, Experiment: exp, Cell: idx,
		Worker: worker, Workloads: loads, Fingerprint: fp, Status: status,
		DurMS: durMS, Err: errMsg})
}
