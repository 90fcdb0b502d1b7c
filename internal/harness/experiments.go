package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// Options controls experiment scale. The zero value means the full
// suite at the default instruction budget.
type Options struct {
	// Insts is the per-run application-instruction budget (default
	// 1,000,000 — runs are length-scaled from the paper's 100M).
	Insts uint64
	// Benchmarks restricts the suite (names or abbreviations).
	Benchmarks []string
	// Mixes overrides Figure 7's multiprogrammed combinations
	// (default: the paper's eight).
	Mixes [][3]string
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialized and issued one full line at a time, so
	// concurrent completions never interleave partial lines.
	Progress io.Writer
	// Parallelism bounds the simulations running concurrently within
	// one experiment (0 = one per available CPU, 1 = serial). Tables
	// are assembled by cell index, so the result is identical at any
	// setting.
	Parallelism int
	// Journal is the store of completed runs the experiments given it
	// share: each distinct run, subject or perfect-TLB baseline,
	// simulates once per journal. One opened with a file also records
	// every completed run to a crash-safe NDJSON file and, resumed,
	// answers the runs an earlier invocation recorded (see
	// OpenJournal). Nil gives each experiment a journal of its own
	// with no file.
	Journal *Journal
	// CellTimeout bounds the wall-clock time of each simulation; an
	// overrunning run aborts with a *cpu.CancelledError wrapping
	// context.DeadlineExceeded and the cell reports FAIL. A sampled
	// Figure 5 row walks its benchmark in the first of its runs to
	// simulate, so that run's deadline covers the whole walk. Zero
	// means no deadline.
	CellTimeout time.Duration
	// Context, when non-nil, cancels all in-flight simulations when it
	// is done (e.g. on SIGINT). Defaults to context.Background().
	Context context.Context
	// Telemetry, when non-nil, streams live run state into the process
	// telemetry plane: cell lifecycle metrics and events, in-flight
	// progress probes, and run-trace spans. The plane observes only —
	// tables, fingerprints and journal bytes are identical with it on
	// or off.
	Telemetry *telemetry.Plane
	// Meter, when non-nil, accumulates completion progress for
	// throughput/ETA progress lines and the final run summary.
	Meter *telemetry.Meter
}

func (o Options) insts() uint64 {
	if o.Insts == 0 {
		return 1_000_000
	}
	return o.Insts
}

func (o Options) suite() ([]*workload.Bench, error) {
	if len(o.Benchmarks) == 0 {
		return workload.All(), nil
	}
	var benches []*workload.Bench
	for _, n := range o.Benchmarks {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	return benches, nil
}

// runner executes an experiment's simulations through the journal
// (opt.Journal, never nil), so each distinct run simulates once. Its
// methods are safe for the concurrent cell execution driven by
// forEach. exp names the experiment for failure reports and journal
// entries.
type runner struct {
	opt      Options
	exp      string
	failSpec string // MTEXC_FAIL_CELL, read once per runner
	// rowBuilds counts the images its grid rows built and lent
	// (forRows).
	rowBuilds atomic.Int64
}

func newRunner(opt Options, exp string) *runner {
	if opt.Journal == nil {
		opt.Journal = &Journal{}
	}
	return &runner{opt: opt, exp: exp, failSpec: failCellSpec()}
}

// progressMu serializes Progress writes across all runners: a
// forEach's workers, and any experiments a caller runs at once, share
// one writer, and a torn line helps nobody.
var progressMu sync.Mutex

func (r *runner) log(format string, args ...any) {
	if r.opt.Progress == nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	progressMu.Lock()
	io.WriteString(r.opt.Progress, line)
	progressMu.Unlock()
}

// namedConfig is one labeled configuration of an experiment axis.
type namedConfig struct {
	name string
	cfg  core.Config
}

// configNames returns an axis's labels, for table columns.
func configNames(cs []namedConfig) []string {
	ns := make([]string, len(cs))
	for i, c := range cs {
		ns[i] = c.name
	}
	return ns
}

func label(cfg core.Config) string {
	s := cfg.Mech.String()
	if cfg.QuickStart {
		s = "quickstart"
	}
	if cfg.Limit != core.LimitNone {
		s += fmt.Sprintf("/limit%d", cfg.Limit)
	}
	return s
}

// baseConfig is the Table 1 machine scaled to the harness budget.
// contexts = application threads + idle contexts for handlers.
func (r *runner) baseConfig(mech core.Mechanism, appThreads, idleContexts int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mech = mech
	cfg.Contexts = appThreads + idleContexts
	cfg.MaxInsts = r.opt.insts()
	cfg.MaxCycles = 400 * r.opt.insts()
	return cfg
}

// grid runs body over every row × column cell of tabs (which share
// one shape) through forRows, marks each failed cell FAIL on every
// table, and appends the average rows.
func (r *runner) grid(body func(c *cell, ri, ci int) error, tabs ...*Table) error {
	nc := len(tabs[0].Cols)
	err := r.forRows(len(tabs[0].Rows), nc, body)
	for _, t := range tabs {
		markFailedCells(t, err, func(i int) [][2]int { return one(i/nc, i%nc) })
		t.AddAverageRow()
	}
	return err
}

// fig5Mechs is Figure 5's mechanism axis: the traditional trap,
// multithreaded handling with one and three idle contexts, and the
// hardware walker. Exact and sampled Figure 5 share it.
func (r *runner) fig5Mechs() []namedConfig {
	return []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"multi(3)", r.baseConfig(core.MechMultithreaded, 1, 3)},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
}

// quickStartMechs is the quick-start axis of Figures 6 and 7 and the
// report's miss-latency table: the traditional trap, multithreaded
// handling with one idle context, the same quick-started, and the
// hardware walker, on a machine running app application threads.
func (r *runner) quickStartMechs(app int) []namedConfig {
	quick := r.baseConfig(core.MechMultithreaded, app, 1)
	quick.QuickStart = true
	return []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, app, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, app, 1)},
		{"quickstart(1)", quick},
		{"hardware", r.baseConfig(core.MechHardware, app, 0)},
	}
}

// meanPenalty tabulates each row configuration's average penalty
// cycles/miss over benches, the reduction shared by Table 3 and the
// ablations. The row × bench grid runs in one pass; each row then sums
// serially, so the mean adds in a fixed order, and any failed
// contributor invalidates its row's mean.
func (r *runner) meanPenalty(title string, rows []namedConfig, benches []*workload.Bench) (*Table, error) {
	t := NewTable(title, configNames(rows), []string{"penalty/miss"})
	pen := make([]float64, len(rows)*len(benches))
	err := r.forEach(len(pen), func(c *cell) error {
		ri, bi := c.index/len(benches), c.index%len(benches)
		cmp, err := r.compare(c, exactJob(rows[ri].cfg, benches[bi]))
		if err != nil {
			return err
		}
		pen[c.index] = cmp.PenaltyPerMiss()
		return nil
	})
	for ri := range rows {
		var sum float64
		for bi := range benches {
			sum += pen[ri*len(benches)+bi]
		}
		t.Set(ri, 0, sum/float64(len(benches)))
	}
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(benches), 0) })
	return t, err
}

// Figure2 regenerates the pipeline-depth trend: traditional-trap
// penalty cycles per miss on an 8-wide machine with 3, 7 and 11
// stages between fetch and execute.
func Figure2(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure2")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	depths := []int{3, 7, 11}
	cols := make([]string, len(depths))
	for i, d := range depths {
		cols[i] = fmt.Sprintf("%d stages", d)
	}
	t := NewTable("Figure 2: software TLB miss penalty vs pipeline depth (penalty cycles/miss, traditional)", names(benches), cols)
	err = r.grid(func(c *cell, bi, di int) error {
		cfg := r.baseConfig(core.MechTraditional, 1, 0).WithPipeDepth(depths[di])
		cmp, err := r.compare(c, exactJob(cfg, benches[bi]))
		if err != nil {
			return err
		}
		t.Set(bi, di, cmp.PenaltyPerMiss())
		return nil
	}, t)
	return t, err
}

// Figure3 regenerates the machine-width trend: the fraction of
// execution time spent on TLB miss handling for 2/4/8-wide machines
// with 32/64/128-entry windows, normalized to the 2-wide case as the
// paper plots it.
func Figure3(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure3")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	shapes := []struct {
		width, window int
	}{{2, 32}, {4, 64}, {8, 128}}
	cols := make([]string, len(shapes))
	for i, s := range shapes {
		cols[i] = fmt.Sprintf("%dw/%dwin", s.width, s.window)
	}
	t := NewTable("Figure 3: relative TLB miss handling time vs machine width (normalized to 2-wide)", names(benches), cols)
	t.Format = "%10.2f"
	// The cells are independent runs; the 2-wide normalization is a
	// serial pass over the collected grid.
	rel := make([]float64, len(benches)*len(shapes))
	err = r.forEach(len(rel), func(c *cell) error {
		bi, si := c.index/len(shapes), c.index%len(shapes)
		s := shapes[si]
		cfg := r.baseConfig(core.MechTraditional, 1, 0).WithWidth(s.width, s.window)
		cmp, err := r.compare(c, exactJob(cfg, benches[bi]))
		if err != nil {
			return err
		}
		rel[c.index] = cmp.RelativeTLBTime()
		return nil
	})
	for bi := range benches {
		base := rel[bi*len(shapes)]
		for si := range shapes {
			if base > 0 {
				t.Set(bi, si, rel[bi*len(shapes)+si]/base)
			} else {
				t.Set(bi, si, 0)
			}
		}
	}
	// A failed 2-wide run poisons its whole row — every cell in the
	// row is normalized to it.
	markFailedCells(t, err, func(i int) [][2]int {
		bi, si := i/len(shapes), i%len(shapes)
		if si == 0 {
			row := make([][2]int, len(shapes))
			for s := range shapes {
				row[s] = [2]int{bi, s}
			}
			return row
		}
		return one(bi, si)
	})
	t.AddAverageRow()
	return t, err
}

// Figure5 regenerates the mechanism comparison: penalty cycles per
// miss for the traditional trap, multithreaded handling with one and
// three idle contexts, and the hardware walker. A benchmark's row
// builds its image once and lends it to the row's machines, the
// shared baseline's included.
func Figure5(opt Options) (*Table, error) { return newRunner(opt, "Figure5").figure5() }

func (r *runner) figure5() (*Table, error) {
	benches, err := r.opt.suite()
	if err != nil {
		return nil, err
	}
	mechs := r.fig5Mechs()
	t := NewTable("Figure 5: TLB miss penalty by exception architecture (penalty cycles/miss)", names(benches), configNames(mechs))
	err = r.grid(func(c *cell, bi, mi int) error {
		cmp, err := r.compare(c, exactJob(mechs[mi].cfg, benches[bi]).inRow(c.row))
		if err != nil {
			return err
		}
		t.Set(bi, mi, cmp.PenaltyPerMiss())
		return nil
	}, t)
	return t, err
}

func names(benches []*workload.Bench) []string {
	ns := make([]string, len(benches))
	for i, b := range benches {
		ns[i] = b.Name()
	}
	return ns
}

// Table3 regenerates the limit studies: the average multithreaded(3)
// penalty with each overhead removed in turn, bracketed by the
// traditional and hardware mechanisms.
func Table3(opt Options) (*Table, error) {
	r := newRunner(opt, "Table3")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	multi3 := func(l core.LimitStudy) core.Config {
		cfg := r.baseConfig(core.MechMultithreaded, 1, 3)
		cfg.Limit = l
		return cfg
	}
	rows := []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multithreaded", multi3(core.LimitNone)},
		{"no exec bw", multi3(core.LimitNoExecBW)},
		{"no window", multi3(core.LimitNoWindow)},
		{"no fetch bw", multi3(core.LimitNoFetchBW)},
		{"instant fetch", multi3(core.LimitInstantFetch)},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
	return r.meanPenalty("Table 3: limit studies — average penalty cycles/miss", rows, benches)
}

// Figure6 regenerates the quick-start evaluation.
func Figure6(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure6")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	configs := r.quickStartMechs(1)
	t := NewTable("Figure 6: quick-starting multithreaded handler (penalty cycles/miss)", names(benches), configNames(configs))
	err = r.grid(func(c *cell, bi, ci int) error {
		cmp, err := r.compare(c, exactJob(configs[ci].cfg, benches[bi]))
		if err != nil {
			return err
		}
		t.Set(bi, ci, cmp.PenaltyPerMiss())
		return nil
	}, t)
	return t, err
}

// PaperMixes are Figure 7's three-application combinations.
var PaperMixes = [...][3]string{
	{"adm", "gcc", "vor"},
	{"apl", "cmp", "h2d"},
	{"apl", "dbl", "vor"},
	{"dbl", "gcc", "h2d"},
	{"adm", "cmp", "vor"},
	{"adm", "h2d", "mph"},
	{"apl", "dbl", "mph"},
	{"cmp", "gcc", "mph"},
}

// Figure7 regenerates the multiprogrammed evaluation: three
// application threads plus one idle context.
func Figure7(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure7")
	mixes := opt.Mixes
	if len(mixes) == 0 {
		mixes = PaperMixes[:]
	}
	configs := r.quickStartMechs(3)
	rowNames := make([]string, len(mixes))
	for i, m := range mixes {
		rowNames[i] = fmt.Sprintf("%s-%s-%s", m[0], m[1], m[2])
	}
	cols := append(configNames(configs), "hdl-active%")
	t := NewTable("Figure 7: TLB miss penalties with 3 applications on the SMT (penalty cycles/miss)", rowNames, cols)
	t.Note = "hdl-active%: fraction of cycles a handler context is busy under multi(1) — the paper reports 5-40%, averaging ~20%"
	// Resolve the workload mixes up front so cell bodies are pure runs.
	mixLoads := make([][]core.Workload, len(mixes))
	for mi, mix := range mixes {
		for _, n := range mix {
			b, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			mixLoads[mi] = append(mixLoads[mi], b)
		}
	}
	err := r.forEach(len(mixes)*len(configs), func(c *cell) error {
		mi, ci := c.index/len(configs), c.index%len(configs)
		cc := configs[ci]
		cmp, err := r.compare(c, exactJob(cc.cfg, mixLoads[mi]...))
		if err != nil {
			return err
		}
		t.Set(mi, ci, cmp.PenaltyPerMiss())
		if cc.name == "multi(1)" {
			active := float64(cmp.Subject.Stats.Get("handler.activecycles")) /
				float64(cmp.Subject.Cycles) * 100
			t.Set(mi, len(configs), active)
		}
		return nil
	})
	// The multi(1) cell also feeds the hdl-active% column.
	markFailedCells(t, err, func(i int) [][2]int {
		mi, ci := i/len(configs), i%len(configs)
		if configs[ci].name == "multi(1)" {
			return [][2]int{{mi, ci}, {mi, len(configs)}}
		}
		return one(mi, ci)
	})
	t.AddAverageRow()
	return t, err
}

// Table4 regenerates the speedup summary: per-benchmark speedup over
// the traditional mechanism for each architecture, plus TLB miss rate
// and base IPC.
func Table4(opt Options) (*Table, error) {
	r := newRunner(opt, "Table4")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	quick1 := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick1.QuickStart = true
	quick3 := r.baseConfig(core.MechMultithreaded, 1, 3)
	quick3.QuickStart = true
	// Every speedup divides the traditional run's cycles, and its
	// baseline also yields baseIPC and perfect%.
	configs := []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"hw%", r.baseConfig(core.MechHardware, 1, 0)},
		{"multi1%", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"multi3%", r.baseConfig(core.MechMultithreaded, 1, 3)},
		{"quick1%", quick1},
		{"quick3%", quick3},
	}
	cols := append([]string{"baseIPC", "miss/Kinst", "perfect%"}, configNames(configs[1:])...)
	t := NewTable("Table 4: speedup over traditional software (percent), miss rate and base IPC", names(benches), cols)
	t.Format = "%10.2f"
	nc := len(configs)
	cmps := make([]core.Comparison, len(benches)*nc)
	err = r.forEach(len(cmps), func(c *cell) error {
		cmp, err := r.compare(c, exactJob(configs[c.index%nc].cfg, benches[c.index/nc]))
		if err != nil {
			return err
		}
		cmps[c.index] = cmp
		return nil
	})
	speedup := func(trad, cycles uint64) float64 { return (float64(trad)/float64(cycles) - 1) * 100 }
	for bi := range benches {
		trad := cmps[bi*nc]
		t.Set(bi, 0, trad.Perfect.IPC)
		t.Set(bi, 1, float64(trad.Subject.DTLBMisses)/float64(trad.Subject.AppInsts)*1e3)
		t.Set(bi, 2, speedup(trad.Subject.Cycles, trad.Perfect.Cycles))
		for ci := 1; ci < nc; ci++ {
			t.Set(bi, 2+ci, speedup(trad.Subject.Cycles, cmps[bi*nc+ci].Subject.Cycles))
		}
	}
	// A failed traditional run poisons its whole row.
	markFailedCells(t, err, func(i int) [][2]int {
		bi, ci := i/nc, i%nc
		if ci > 0 {
			return one(bi, 2+ci)
		}
		row := make([][2]int, len(cols))
		for c := range cols {
			row[c] = [2]int{bi, c}
		}
		return row
	})
	return t, err
}

// Table2 summarizes the synthetic suite: the analogue of the paper's
// benchmark table, with misses scaled to a 100M-instruction run.
func Table2(opt Options) (*Table, error) {
	r := newRunner(opt, "Table2")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	t := NewTable("Table 2: benchmark summary (DTLB misses scaled to 100M instructions)", names(benches), []string{"misses/100M", "baseIPC"})
	t.Format = "%10.1f"
	err = r.forEach(len(benches), func(c *cell) error {
		bi := c.index
		cmp, err := r.compare(c, exactJob(r.baseConfig(core.MechMultithreaded, 1, 1), benches[bi]))
		if err != nil {
			return err
		}
		t.Set(bi, 0, float64(cmp.Subject.DTLBMisses)/float64(cmp.Subject.AppInsts)*1e8)
		t.Set(bi, 1, cmp.Perfect.IPC)
		return nil
	})
	markFailedCells(t, err, func(bi int) [][2]int { return [][2]int{{bi, 0}, {bi, 1}} })
	return t, err
}

// Ablations evaluates the Section 4 design choices beyond the paper's
// own studies: handler fetch priority, window reservation and
// same-page relinking, as average penalty cycles/miss deltas.
func Ablations(opt Options) (*Table, error) {
	r := newRunner(opt, "Ablations")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	mk := func(mod func(*core.Config)) core.Config {
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		mod(&cfg)
		return cfg
	}
	rows := []namedConfig{
		{"baseline multi(1)", mk(func(*core.Config) {})},
		{"no fetch priority", mk(func(c *core.Config) { c.NoHandlerFetchPriority = true })},
		{"no window reservation", mk(func(c *core.Config) { c.NoWindowReservation = true })},
		{"no same-page relink", mk(func(c *core.Config) { c.NoRelink = true })},
		{"long handler (+12 insts)", mk(func(c *core.Config) {
			c.Handler.ExtraPrologue += 8
			c.Handler.ExtraDependent += 4
		})},
		{"round-robin fetch", mk(func(c *core.Config) { c.FetchRoundRobin = true })},
		{"retire width 8", mk(func(c *core.Config) { c.RetireWidth = 8 })},
		{"4-way set-assoc DTLB", mk(func(c *core.Config) { c.DTLBWays = 4 })},
		{"gshare predictor", mk(func(c *core.Config) { c.BranchPredictor = "gshare" })},
		{"bimodal predictor", mk(func(c *core.Config) { c.BranchPredictor = "bimodal" })},
	}
	return r.meanPenalty("Ablations: multithreaded(1) design choices — average penalty cycles/miss", rows, benches)
}
