// Command mtexc-experiments regenerates the paper's tables and
// figures (Zilles, Emer & Sohi, "The Use of Multithreading for
// Exception Handling", MICRO-32 1999) on the mtexc simulator.
//
// Usage:
//
//	mtexc-experiments -all                 # every table and figure
//	mtexc-experiments -fig5 -insts 2000000 # one experiment, longer runs
//	mtexc-experiments -fig2 -bench cmp,vor
//
// Runs are length-scaled from the paper's 100M-instruction windows;
// use -insts to trade time for stability.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/harness"
	"mtexc/internal/prof"
	"mtexc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtexc-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		table1   = fs.Bool("table1", false, "print the machine configuration (Table 1)")
		table2   = fs.Bool("table2", false, "benchmark summary (Table 2)")
		fig2     = fs.Bool("fig2", false, "pipeline-depth trend (Figure 2)")
		fig3     = fs.Bool("fig3", false, "machine-width trend (Figure 3)")
		fig5     = fs.Bool("fig5", false, "mechanism comparison (Figure 5)")
		table3   = fs.Bool("table3", false, "limit studies (Table 3)")
		fig6     = fs.Bool("fig6", false, "quick-start (Figure 6)")
		fig7     = fs.Bool("fig7", false, "multiprogrammed mixes (Figure 7)")
		table4   = fs.Bool("table4", false, "speedups, miss rates, IPC (Table 4)")
		ablate   = fs.Bool("ablate", false, "design-choice ablations (beyond the paper)")
		general  = fs.Bool("general", false, "generalized mechanism: POPC emulation (Section 6)")
		tlbsw    = fs.Bool("tlbsweep", false, "TLB-size sensitivity of the per-miss metric")
		faults   = fs.Bool("faults", false, "page-fault injection / hard-exception study")
		ptorg    = fs.Bool("ptorg", false, "page-table organization study (linear vs two-level)")
		unalign  = fs.Bool("unaligned", false, "generalized mechanism: unaligned loads (Section 6)")
		sharedl2 = fs.Bool("sharedl2", false, "shared-L2 topology study: penalty/miss vs core count and co-runner (not part of -all: cluster cells multiply the instruction budget by the core count)")
		fig5samp = fs.Bool("fig5sampled", false, "mechanism comparison in sampled mode (functional fast-forward + periodic cycle-accurate windows)")
		sampleF  = fs.String("sample", "100000:10000:10000", "sampling spec for -fig5sampled/-sample-check: period:warmup:window instruction counts")
		sampChk  = fs.Bool("sample-check", false, "run Figure 5 both exact and sampled, verify every cell agrees within its confidence interval (plus edge allowance), and report the wall-clock speedup")
		insts    = fs.Uint64("insts", 1_000_000, "application instructions per run")
		benches  = fs.String("bench", "", "comma-separated benchmark subset (default: all 8)")
		verbose  = fs.Bool("v", false, "log every simulation run")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut  = fs.Bool("json", false, "emit newline-delimited JSON rows instead of aligned text")
		parallel = fs.Int("parallel", 0, "simulations run at once (0 = one per CPU, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (post-run) to this file")
		journalP = fs.String("journal", "out/journal.ndjson", "NDJSON file recording every completed simulation, for -resume (empty: no file; repeated runs still simulate once)")
		resume   = fs.Bool("resume", false, "reuse results journaled by a previous (possibly killed) invocation instead of re-simulating them")
		cellTime = fs.Duration("cell-timeout", 0, "wall-clock deadline per simulation (0 = none); an overrunning cell reports FAIL")
		telAddr  = fs.String("telemetry", "", "serve the live telemetry plane on this address (/metrics, /debug/cells, /debug/pprof); empty disables")
		eventsP  = fs.String("events", "", "write a structured NDJSON event log to this file (empty disables)")
		evLevel  = fs.String("events-level", "info", "minimum severity kept in the -events log (debug|info|warn|error)")
		traceP   = fs.String("runtrace", "", "write a Chrome trace of the whole run (one lane per worker) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out := output{stdout: stdout, notes: stdout, csv: *csv, json: *jsonOut}
	if *csv || *jsonOut {
		out.notes = stderr
	}

	// A SIGINT/SIGTERM cancels in-flight simulations; cells journaled
	// before the signal survive for a later -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One journal across every enabled experiment, with or without a
	// file: each distinct run simulates once per invocation.
	journal, err := harness.OpenJournal(*journalP, *resume)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-experiments:", err)
		return 1
	}
	if *resume && *verbose && *journalP != "" {
		fmt.Fprintf(stderr, "resuming: %d journaled simulation(s) in %s\n", journal.Len(), *journalP)
	}
	opt := harness.Options{
		Insts:       *insts,
		Parallelism: *parallel,
		Journal:     journal,
		CellTimeout: *cellTime,
		Context:     ctx,
	}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	if *verbose {
		opt.Progress = stderr
	}

	// The telemetry plane is assembled from whichever surfaces were
	// requested; everything stays nil (and free) when none were.
	runStart := time.Now()
	var plane *telemetry.Plane
	var telSrv *telemetry.Server
	if *telAddr != "" || *eventsP != "" || *traceP != "" {
		plane = telemetry.NewPlane()
		if *eventsP != "" {
			events, err := telemetry.OpenLog(*eventsP, telemetry.Level(*evLevel))
			if err != nil {
				fmt.Fprintln(stderr, "mtexc-experiments:", err)
				return 1
			}
			defer events.Close()
			plane.Events = events
			plane.Reg.CounterFunc("mtexc_event_write_retries_total",
				"Transient event-log append Write errors recovered by the bounded retry.",
				func() float64 { return float64(events.WriteRetries()) })
		}
		if *journalP != "" {
			plane.Reg.CounterFunc("mtexc_journal_write_retries_total",
				"Transient journal append Write errors recovered by the bounded retry.",
				func() float64 { return float64(journal.WriteRetries()) })
		}
		if *traceP != "" {
			plane.Trace = telemetry.NewRunTrace()
		}
		if *telAddr != "" {
			var err error
			telSrv, err = plane.Serve(*telAddr)
			if err != nil {
				fmt.Fprintln(stderr, "mtexc-experiments:", err)
				return 1
			}
			defer telSrv.Close()
			fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics\n", telSrv.Addr())
		}
		opt.Telemetry = plane
		plane.RunStarted(strings.Join(args, " "))
	}
	opt.Meter = telemetry.NewMeter()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-experiments:", err)
		return 1
	}

	type experiment struct {
		enabled *bool
		name    string
		run     func(harness.Options) (*harness.Table, error)
		// noAll keeps an experiment out of -all (it must be asked for
		// by its own flag), so adding one never changes -all's output
		// or wall clock.
		noAll bool
	}
	experiments := []experiment{
		{table2, "Table2", harness.Table2, false},
		{fig2, "Figure2", harness.Figure2, false},
		{fig3, "Figure3", harness.Figure3, false},
		{fig5, "Figure5", harness.Figure5, false},
		{table3, "Table3", harness.Table3, false},
		{fig6, "Figure6", harness.Figure6, false},
		{fig7, "Figure7", harness.Figure7, false},
		{table4, "Table4", harness.Table4, false},
		{ablate, "Ablations", harness.Ablations, false},
		{general, "Generalized", harness.Generalized, false},
		{tlbsw, "TLBSweep", harness.TLBSweep, false},
		{faults, "FaultInjection", harness.FaultInjection, false},
		{ptorg, "PTOrganization", harness.PTOrganization, false},
		{unalign, "Unaligned", harness.Unaligned, false},
		{sharedl2, "SharedL2", harness.SharedL2, true},
	}

	ran := false
	if *table1 || *all {
		printTable1(stdout)
		ran = true
	}
	// The enabled experiments run one after another, each on the
	// -parallel workers of its own forEach, so at most -parallel
	// simulations run at once and a run an earlier experiment already
	// journaled or cached is read, never raced. Tables print in
	// declaration order, after the sampled ones.
	type outcome struct {
		tab *harness.Table
		err error
	}
	results := make([]*outcome, len(experiments))
	for i, e := range experiments {
		if !*e.enabled && !(*all && !e.noAll) {
			continue
		}
		ran = true
		res := &outcome{}
		results[i] = res
		func() {
			// Cell failures are contained inside the harness; this
			// recover is the backstop for panics outside any cell
			// (setup, table assembly), so one broken experiment never
			// takes down its siblings' results.
			defer func() {
				if v := recover(); v != nil {
					res.err = fmt.Errorf("%s: internal panic: %v", e.name, v)
				}
			}()
			res.tab, res.err = e.run(opt)
		}()
	}
	// The sampled-mode runs are not part of the Table-returning
	// experiment set; they run here so the profiles still cover them.
	// Their failed cells join the digest below.
	sampledExit := 0
	if *fig5samp || *sampChk {
		ran = true
		spec, err := core.ParseSampleSpec(*sampleF)
		if err != nil {
			fmt.Fprintln(stderr, "mtexc-experiments:", err)
			return 2
		}
		sampledExit, err = runSampledFigure5(opt, spec, *sampChk, out, stderr)
		if err != nil {
			results = append(results, &outcome{err: err})
		}
	}
	// The profiles cover the simulations, not the table printing.
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "mtexc-experiments:", err)
		return 1
	}
	// Print every table — partial ones render failed cells as FAIL —
	// then digest the failures, so one dead cell never hides the rest
	// of the suite's results.
	exitCode := 0
	if sampledExit != 0 {
		exitCode = sampledExit
	}
	var failures []*harness.CellError
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.tab != nil {
			if err := out.table(r.tab); err != nil {
				fmt.Fprintln(stderr, "mtexc-experiments:", err)
				return 1
			}
		}
		if r.err != nil {
			exitCode = 1
			var ee *harness.ExperimentError
			if errors.As(r.err, &ee) {
				failures = append(failures, ee.Cells...)
			} else {
				fmt.Fprintln(stderr, "mtexc-experiments:", r.err)
			}
		}
	}
	for _, ce := range failures {
		fmt.Fprintf(stderr, "mtexc-experiments: FAILED %v\n", ce)
		if repro := ce.Repro(); repro != "" {
			fmt.Fprintf(stderr, "  repro: %s\n", repro)
		}
		if *verbose && len(ce.Stack) > 0 {
			fmt.Fprintf(stderr, "  stack:\n%s\n", ce.Stack)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "mtexc-experiments: %d cell(s) failed; rerun with -v for stacks\n", len(failures))
	}
	if *verbose && *journalP != "" {
		fmt.Fprintf(stderr, "journal: %d hit(s), %d new entr%s\n",
			journal.Hits(), journal.Appends(), plural(journal.Appends(), "y", "ies"))
	}
	if err := journal.Close(); err != nil {
		fmt.Fprintln(stderr, "mtexc-experiments:", err)
		exitCode = 1
	}
	if !ran {
		fs.Usage()
		return 2
	}
	fmt.Fprintln(stderr, opt.Meter.Summary())
	if plane != nil {
		status := "ok"
		if exitCode != 0 {
			status = "fail"
		}
		plane.RunFinished(status, time.Since(runStart).Seconds()*1e3)
		if plane.Trace != nil {
			if err := writeRunTrace(*traceP, plane.Trace); err != nil {
				fmt.Fprintln(stderr, "mtexc-experiments:", err)
				exitCode = 1
			} else if *verbose {
				fmt.Fprintf(stderr, "runtrace: %d span(s) -> %s\n", plane.Trace.Len(), *traceP)
			}
		}
	}
	return exitCode
}

// output writes tables in the format the flags chose: aligned text,
// CSV under a "# title" line, or NDJSON rows. Lines that are not
// tables (the sampled detail and the sample-check verdicts) go to
// notes, which is stdout in text mode and stderr otherwise, so a -csv
// or -json stream holds only tables.
type output struct {
	stdout, notes io.Writer
	csv, json     bool
}

func (o output) table(t *harness.Table) error {
	switch {
	case o.json:
		return t.WriteJSONRows(o.stdout)
	case o.csv:
		_, err := fmt.Fprintf(o.stdout, "# %s\n%s\n", t.Title, t.CSV())
		return err
	}
	_, err := fmt.Fprintln(o.stdout, t)
	return err
}

// runSampledFigure5 regenerates Figure 5 in sampled mode and prints
// the estimate and confidence tables — partial ones render failed
// cells as FAIL, and the experiment error is returned for the failure
// digest. With check set it also runs the exact experiment and
// verifies each cell agrees within its confidence interval plus a
// small edge allowance (for the exact run's cold-start ramp and
// window-boundary stall spill — see docs/performance.md), reporting
// the wall-clock speedup. Stdout stays deterministic without check, so
// a resumed run prints the same bytes; the wall clock goes to stderr.
func runSampledFigure5(opt harness.Options, spec core.SampleSpec, check bool, out output, stderr io.Writer) (int, error) {
	t0 := time.Now()
	samp, err := harness.Figure5Sampled(opt, spec)
	sampElapsed := time.Since(t0)
	if samp == nil {
		return 1, err
	}
	for _, tab := range []*harness.Table{samp.Est, samp.CI} {
		if werr := out.table(tab); werr != nil {
			return 1, werr
		}
	}
	fmt.Fprintf(out.notes, "sampled detail: %d of %d insts cycle-accurate (%.1f%% of the exact-comparison work)\n\n",
		samp.DetailedInsts, 2*samp.TotalInsts, 100*float64(samp.DetailedInsts)/float64(2*samp.TotalInsts))
	fmt.Fprintf(stderr, "sampled Figure 5: %s wall clock\n", sampElapsed.Round(time.Millisecond))
	if err != nil {
		return 1, err
	}
	if !check {
		return 0, nil
	}
	t1 := time.Now()
	exact, err := harness.Figure5(opt)
	exactElapsed := time.Since(t1)
	if err != nil {
		return 1, err
	}
	if err := out.table(exact); err != nil {
		return 1, err
	}
	bad := 0
	for r, row := range exact.Rows {
		if row == "average" {
			continue
		}
		for c, col := range exact.Cols {
			if exact.FailedAt(r, c) || samp.Est.FailedAt(r, c) {
				fmt.Fprintf(stderr, "mtexc-experiments: sample-check %s/%s: cell FAILED\n", row, col)
				bad++
				continue
			}
			want, got, ci := exact.Get(r, c), samp.Est.Get(r, c), samp.CI.Get(r, c)
			tol := ci + 0.05*math.Abs(want) + 0.75
			if diff := math.Abs(got - want); diff > tol {
				fmt.Fprintf(stderr, "mtexc-experiments: sample-check %s/%s: sampled %.2f±%.2f vs exact %.2f: |Δ|=%.2f exceeds tolerance %.2f\n",
					row, col, got, ci, want, diff, tol)
				bad++
			}
		}
	}
	fmt.Fprintf(out.notes, "sample-check: exact %s, sampled %s (%.1fx wall clock)\n",
		exactElapsed.Round(time.Millisecond), sampElapsed.Round(time.Millisecond),
		exactElapsed.Seconds()/sampElapsed.Seconds())
	if bad > 0 {
		fmt.Fprintf(stderr, "mtexc-experiments: sample-check: %d cell(s) outside tolerance\n", bad)
		return 1, nil
	}
	fmt.Fprintln(out.notes, "sample-check: all cells within tolerance")
	return 0, nil
}

// writeRunTrace renders the collected run trace as a Chrome trace
// file, creating parent directories as needed.
func writeRunTrace(path string, tr *telemetry.RunTrace) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func printTable1(w io.Writer) {
	fmt.Fprint(w, `Table 1: base simulated machine configuration
  Core          8-wide SMT, dynamically scheduled, 128-entry shared window,
                oldest-fetched-first issue, per-thread in-order retirement
  Pipeline      3 fetch + 1 decode + 1 schedule + 2 register read
                (7 stages fetch-to-execute nominal)
  FUs           8 iALU(1), 3 iMUL/DIV(3/12), 3 FADD(2)/FMUL(4),
                1 FDIV/SQRT(12/26), 3 load/store ports (3/2); all pipelined
  Branch pred   YAGS 2^14 choice + 2^12 exceptions (6-bit tags); cascaded
                indirect 2^8/2^10; 64-entry checkpointing RAS; perfect
                direct-branch targets
  Memory        64KB/2-way/32B L1I and L1D; 1MB/4-way/64B unified L2
                (6-cycle); 16B L1/L2 bus; 11-cycle L2/mem occupancy;
                80-cycle memory; 64 MSHRs (best load-use 3/12/104)
  Translation   perfect ITLB; 64-entry DTLB; PAL and user instructions
                co-exist; speculative miss handling; renamed miss registers;
                perfect common-case handler length prediction

`)
}
