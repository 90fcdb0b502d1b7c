// Command mtexcsim runs one benchmark (or mix) under one exception
// architecture and prints the run summary and machine statistics.
//
// Usage:
//
//	mtexcsim -bench compress -mech multithreaded -idle 1 -insts 1000000
//	mtexcsim -bench adm,gcc,vor -mech traditional
//	mtexcsim -bench vor -mech multithreaded -quickstart -stats
//
// Benchmark names starting with "fuzz:" replay generated
// differential-fuzzing programs (see cmd/mtexc-fuzz and
// docs/fuzzing.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/fastpath"
	"mtexc/internal/mem"
	"mtexc/internal/obs"
	"mtexc/internal/prof"
	"mtexc/internal/trace"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// defaultTraceCap is the trace-record capacity implied by the trace
// exporters (-kanata, -chrome) when -trace was not given explicitly.
const defaultTraceCap = 512

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtexcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchList  = fs.String("bench", "compress", "comma-separated benchmark name(s); one hardware context each")
		mechName   = fs.String("mech", "multithreaded", "exception architecture: perfect | traditional | multithreaded | hardware")
		idle       = fs.Int("idle", 1, "idle hardware contexts for exception handlers")
		cores      = fs.Int("cores", 1, "shared-L2 cluster width: -bench runs on core 0, -corunner on every other core (private L1s/TLBs, one shared L2)")
		corunner   = fs.String("corunner", "", "benchmark for cores 1..N-1 of a -cores cluster (default: same as -bench)")
		insts      = fs.Uint64("insts", 1_000_000, "application instructions to retire")
		quickstart = fs.Bool("quickstart", false, "pre-stage the handler in idle fetch buffers (Section 5.4)")
		width      = fs.Int("width", 8, "machine width (fetch = decode = issue)")
		window     = fs.Int("window", 128, "instruction window entries")
		depth      = fs.Int("depth", 7, "fetch-to-execute pipeline stages")
		dtlb       = fs.Int("dtlb", 64, "DTLB entries")
		ptName     = fs.String("pt", "linear", "page-table organization: linear | twolevel")
		emuPopc    = fs.Bool("emupopc", false, "software-emulate POPC via the emulation trap (software mechanisms only)")
		trapUnal   = fs.Bool("trapunaligned", false, "trap and emulate unaligned integer loads (software mechanisms only)")
		showStats  = fs.Bool("stats", false, "dump all machine statistics")
		traceN     = fs.Int("trace", 0, "print a pipeline diagram of the last N instructions")
		kanata     = fs.String("kanata", "", "write the trace in Kanata viewer format to this file (implies -trace 512)")
		chromeOut  = fs.String("chrome", "", "write the trace as Chrome trace_event JSON to this file (implies -trace 512)")
		jsonOut    = fs.String("json", "", "write the full run snapshot (stats, slot account, miss breakdown, series) as JSON to this file")
		interval   = fs.Uint64("interval", 0, "sample interval in cycles for time series (0: 10000 when exporting, else off)")
		seriesCSV  = fs.String("seriescsv", "", "write the sampled time series as CSV to this file")
		sampleSpec = fs.String("sample", "", "sampled mode: period:warmup:window instruction counts (e.g. 100000:10000:10000); estimates the penalty per TLB miss from periodic cycle-accurate windows over a functional fast-forward run")
		functional = fs.Bool("functional", false, "run purely on the threaded-code functional tier (no cycle accounting); reports throughput")
		list       = fs.Bool("list", false, "list available benchmarks and exit")
		noprogress = fs.Uint64("noprogress", core.DefaultConfig().NoProgressLimit, "livelock watchdog: abort after this many cycles without a retirement (0 disables)")
		cellTime   = fs.Duration("cell-timeout", 0, "wall-clock deadline for the simulation (0 = none); mirrors the harness per-cell deadline so timeout-classified cells reproduce")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, b := range workload.All() {
			fmt.Fprintf(stdout, "%-12s (%s)  %s\n", b.Name(), b.Short(), b.Description())
		}
		return 0
	}

	// The trace exporters need records to export: turn tracing on at a
	// default capacity when a trace file was requested without -trace.
	if (*kanata != "" || *chromeOut != "") && *traceN <= 0 {
		*traceN = defaultTraceCap
	}

	cfg := core.DefaultConfig().WithWidth(*width, *window).WithPipeDepth(*depth)
	cfg.DTLBEntries = *dtlb
	cfg.MaxInsts = *insts
	cfg.MaxCycles = 400 * *insts
	cfg.QuickStart = *quickstart
	cfg.NoProgressLimit = *noprogress
	cfg.SampleInterval = *interval
	cfg.EmulatePopc = *emuPopc
	cfg.TrapUnaligned = *trapUnal
	if cfg.SampleInterval == 0 && (*jsonOut != "" || *seriesCSV != "") {
		cfg.SampleInterval = 10_000
	}
	switch *mechName {
	case "perfect":
		cfg.Mech = core.MechPerfect
	case "traditional":
		cfg.Mech = core.MechTraditional
	case "multithreaded":
		cfg.Mech = core.MechMultithreaded
	case "hardware":
		cfg.Mech = core.MechHardware
	default:
		fmt.Fprintf(stderr, "mtexcsim: unknown mechanism %q\n", *mechName)
		return 2
	}
	switch *ptName {
	case "linear":
		cfg.PageTable = vm.PTLinear
	case "twolevel":
		cfg.PageTable = vm.PTTwoLevel
	default:
		fmt.Fprintf(stderr, "mtexcsim: unknown page-table organization %q\n", *ptName)
		return 2
	}

	var loads []core.Workload
	for _, n := range strings.Split(*benchList, ",") {
		w, err := resolveBench(strings.TrimSpace(n), cfg.PageTable)
		if err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 2
		}
		loads = append(loads, w)
	}
	cfg.Contexts = len(loads) + *idle

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}

	// The per-run deadline mirrors harness.Options.CellTimeout in every
	// mode: an overrunning simulation aborts with a *cpu.CancelledError
	// wrapping context.DeadlineExceeded, exactly as a harness cell
	// reports it.
	ctx := context.Background()
	if *cellTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *cellTime)
		defer cancel()
	}

	// The shared-L2 cluster path: N cores with private L1s and TLBs
	// over one shared L2 domain, driven by the deterministic
	// round-robin driver. Reproduces harness SharedL2 cells.
	if *cores > 1 {
		if len(loads) != 1 {
			fmt.Fprintln(stderr, "mtexcsim: -cores takes exactly one -bench benchmark (core 0); use -corunner for the others")
			return 2
		}
		if *functional || *sampleSpec != "" || *traceN > 0 || *kanata != "" || *chromeOut != "" || *jsonOut != "" || *seriesCSV != "" {
			fmt.Fprintln(stderr, "mtexcsim: -cores is incompatible with -functional, -sample, -trace, -kanata, -chrome, -json and -seriescsv")
			return 2
		}
		cfg.Contexts = 1 + *idle
		crName := *corunner
		if crName == "" {
			crName = *benchList
		}
		for i := 1; i < *cores; i++ {
			w, err := resolveBench(strings.TrimSpace(crName), cfg.PageTable)
			if err != nil {
				fmt.Fprintln(stderr, "mtexcsim:", err)
				return 2
			}
			loads = append(loads, w)
		}
		return runCluster(ctx, cfg, loads, *showStats, stopProf, stdout, stderr)
	}

	// The two-tier paths: pure functional execution and sampled
	// cycle-accurate windows. Both drive a single workload.
	if *functional && *sampleSpec != "" {
		fmt.Fprintln(stderr, "mtexcsim: -functional and -sample are mutually exclusive")
		return 2
	}
	if *functional || *sampleSpec != "" {
		if len(loads) != 1 {
			fmt.Fprintln(stderr, "mtexcsim: -functional/-sample take exactly one benchmark")
			return 2
		}
		if *functional {
			return runFunctional(ctx, loads[0], cfg, stopProf, stdout, stderr)
		}
		spec, err := core.ParseSampleSpec(*sampleSpec)
		if err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 2
		}
		return runSampled(ctx, loads[0], cfg, spec, stopProf, stdout, stderr)
	}

	var collector *trace.Collector
	var res core.Result
	if *traceN > 0 {
		// Build the machine by hand so the trace hook can attach.
		m := core.NewMachine(cfg)
		for i, w := range loads {
			img, err := w.Build(m.Phys(), uint8(i+1))
			if err != nil {
				fmt.Fprintln(stderr, "mtexcsim:", err)
				return 1
			}
			if _, err := m.AddProgram(img); err != nil {
				fmt.Fprintln(stderr, "mtexcsim:", err)
				return 1
			}
			m.WarmPageTable(img.Space)
		}
		collector = trace.NewCollector(*traceN)
		m.TraceHook = collector.Add
		m.SetCancel(ctx)
		var err error
		res, err = m.Run()
		if err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 1
		}
	} else {
		var err error
		res, err = core.RunCtx(ctx, cfg, loads...)
		if err != nil {
			// A LivelockError already carries the machine dump; print
			// it whole so the wedge is diagnosable from stderr.
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 1
		}
	}
	// The profiles cover the simulation, not the reporting below.
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "benchmarks : %s\n", *benchList)
	fmt.Fprintf(stdout, "mechanism  : %s", cfg.Mech)
	if cfg.QuickStart {
		fmt.Fprint(stdout, " + quickstart")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "machine    : %d-wide, %d-entry window, %d-stage front end, %d-entry DTLB, %d contexts\n",
		cfg.Width, cfg.WindowSize, cfg.PipeDepth(), cfg.DTLBEntries, cfg.Contexts)
	fmt.Fprintf(stdout, "cycles     : %d\n", res.Cycles)
	fmt.Fprintf(stdout, "app insts  : %d\n", res.AppInsts)
	fmt.Fprintf(stdout, "IPC        : %.3f\n", res.IPC)
	fmt.Fprintf(stdout, "DTLB fills : %d (%.0f per 100M instructions)\n",
		res.DTLBMisses, float64(res.DTLBMisses)/float64(res.AppInsts)*1e8)
	if o := res.Obs; o != nil && o.Slots != nil && o.Slots.Total() > 0 {
		fmt.Fprintf(stdout, "slot mix   :")
		for _, k := range obs.SlotKinds() {
			fmt.Fprintf(stdout, " %s %.1f%%", k, o.Slots.Fraction(k)*100)
		}
		fmt.Fprintln(stdout)
	}
	if *showStats {
		fmt.Fprintln(stdout, "\nstatistics:")
		fmt.Fprint(stdout, res.Stats.String())
	}
	if collector != nil {
		fmt.Fprintln(stdout)
		collector.Render(stdout)
		collector.Summary(stdout)
		if *kanata != "" {
			if err := writeFile(stdout, *kanata, "kanata trace", func(f *os.File) error {
				return trace.WriteKanata(f, collector.Records())
			}); err != nil {
				fmt.Fprintln(stderr, "mtexcsim:", err)
				return 1
			}
		}
		if *chromeOut != "" {
			if err := writeFile(stdout, *chromeOut, "chrome trace", func(f *os.File) error {
				return obs.WriteChromeTrace(f, collector.Records())
			}); err != nil {
				fmt.Fprintln(stderr, "mtexcsim:", err)
				return 1
			}
		}
	}
	if *jsonOut != "" {
		snap := core.Snapshot(cfg, benchNames(*benchList), res)
		if err := writeFile(stdout, *jsonOut, "snapshot", func(f *os.File) error {
			return obs.WriteJSON(f, snap)
		}); err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 1
		}
	}
	if *seriesCSV != "" {
		if err := writeFile(stdout, *seriesCSV, "series CSV", func(f *os.File) error {
			return obs.WriteSeriesCSV(f, res.Obs.Series())
		}); err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 1
		}
	}
	return 0
}

// runFunctional executes the benchmark purely on the threaded-code
// functional tier — no cycle accounting — and reports throughput. It
// fast-forwards in slices of about 1M instructions and checks ctx
// between them.
func runFunctional(ctx context.Context, w core.Workload, cfg core.Config, stopProf func() error, stdout, stderr io.Writer) int {
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	eng, err := fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned})
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	start := time.Now()
	var ran uint64
	var ffErr error
	for ran < cfg.MaxInsts && !eng.Halted() && ffErr == nil {
		if err := ctx.Err(); err != nil {
			ffErr = &cpu.CancelledError{Cause: err}
			break
		}
		n, err := eng.FastForward(min(1<<20, cfg.MaxInsts-ran))
		ran, ffErr = ran+n, err
	}
	elapsed := time.Since(start)
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	if ffErr != nil {
		fmt.Fprintln(stderr, "mtexcsim:", ffErr)
		return 1
	}
	fmt.Fprintf(stdout, "benchmark  : %s\n", w.Name())
	fmt.Fprintf(stdout, "tier       : functional (threaded-code dispatch)\n")
	fmt.Fprintf(stdout, "insts      : %d\n", ran)
	fmt.Fprintf(stdout, "halted     : %v\n", eng.Halted())
	fmt.Fprintf(stdout, "elapsed    : %s\n", elapsed)
	if s := elapsed.Seconds(); s > 0 {
		fmt.Fprintf(stdout, "throughput : %.1fM insts/s\n", float64(ran)/s/1e6)
	}
	return 0
}

// runSampled estimates the penalty per TLB miss from periodic
// cycle-accurate windows over a functional fast-forward of the run
// (core.SampleCompareCtx, under ctx), and reports the estimate with
// its confidence interval and the detail fraction behind the speedup.
func runSampled(ctx context.Context, w core.Workload, cfg core.Config, spec core.SampleSpec, stopProf func() error, stdout, stderr io.Writer) int {
	start := time.Now()
	s, err := core.SampleCompareCtx(ctx, cfg, spec, w)
	elapsed := time.Since(start)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(stderr, "mtexcsim:", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchmark  : %s\n", w.Name())
	fmt.Fprintf(stdout, "mechanism  : %s\n", cfg.Mech)
	fmt.Fprintf(stdout, "sampling   : %s (period:warmup:window)\n", s.Spec)
	fmt.Fprintf(stdout, "windows    : %d\n", s.Windows)
	fmt.Fprintf(stdout, "penalty    : %.2f ± %.2f cycles/miss (95%% CI)\n", s.PenaltyPerMiss, s.CI95)
	fmt.Fprintf(stdout, "miss rate  : %.2f per 1000 insts (measured windows)\n", s.MissesPerKInst)
	// An exact comparison simulates every instruction twice (subject
	// and perfect baseline), so the detail fraction is over 2×total.
	fmt.Fprintf(stdout, "detail     : %d of %d insts cycle-accurate (%.1f%% of the exact-comparison work)\n",
		s.DetailedInsts, 2*s.TotalInsts, 100*float64(s.DetailedInsts)/float64(2*s.TotalInsts))
	fmt.Fprintf(stdout, "elapsed    : %s\n", elapsed)
	return 0
}

// resolveBench maps one -bench name to a workload: a Table 2
// benchmark, or a generated fuzz program ("fuzz:<spec>").
func resolveBench(name string, org vm.PTOrg) (core.Workload, error) {
	if strings.HasPrefix(name, workload.FuzzPrefix) {
		f, err := workload.ParseFuzz(name)
		if err != nil {
			return nil, err
		}
		if org == vm.PTTwoLevel {
			f = f.WithTwoLevelPT()
		}
		return f, nil
	}
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if org == vm.PTTwoLevel {
		b = b.WithTwoLevelPT()
	}
	return b, nil
}

func benchNames(list string) []string {
	var names []string
	for _, n := range strings.Split(list, ",") {
		names = append(names, strings.TrimSpace(n))
	}
	return names
}

// writeFile creates path and runs the exporter, failing loudly: a
// requested export that cannot be produced is an error, not a note.
func writeFile(stdout io.Writer, path, what string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %v", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %v", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", what, err)
	}
	fmt.Fprintf(stdout, "%s written to %s\n", what, path)
	return nil
}
