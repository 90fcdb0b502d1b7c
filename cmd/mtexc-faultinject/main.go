// Command mtexc-faultinject runs transient-fault injection campaigns
// against the cycle-accurate core: seeded single-bit flips in chosen
// state classes (architectural registers, live handler state, TLB
// entries, instruction-window payloads), each classified against the
// differential-fuzzing oracle into masked / detected / sdc / hang /
// crash, and summarized as an AVF-style vulnerability table across
// the paper's mechanism axis:
//
//	mtexc-faultinject                         # default grid, 5 trials/cell
//	mtexc-faultinject -trials 20 -seed 7      # a denser sweep
//	mtexc-faultinject -classes tlb,window -mechs trad,hw
//	mtexc-faultinject -replay 'fi1;spec=v1.s101...;mech=trad;class=tlb;at=123;seed=0xabc;expect=sdc'
//
// The campaign is deterministic: equal seeds over equal grids emit
// byte-identical reports at any -parallel setting, and -journal
// -resume answers completed (mechanism, workload) pairs, each one
// harness cell serving every state class, without re-simulating them.
//
// Exit status: 0 on success (replay: outcome matched), 1 on cell
// failures or a replay mismatch, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/faultinject"
	"mtexc/internal/harness"
	"mtexc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtexc-faultinject", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "campaign seed: drives every per-trial flip derivation")
		trials   = fs.Int("trials", 5, "injection trials per state-class x mechanism x workload cell (at least 1)")
		classes  = fs.String("classes", "", "comma-separated state classes (reg|handler|tlb|window; empty = all)")
		mechs    = fs.String("mechs", "", "comma-separated mechanisms (trad|multi1|multi3|hw; empty = all)")
		specs    = fs.String("specs", "", "comma-separated gen program specs (empty = the built-in suite)")
		frac     = fs.Float64("frac", 0.85, "inject within the first fraction of the unfaulted run's cycles, in (0, 1]")
		parallel = fs.Int("parallel", 0, "(mechanism, workload) pairs run concurrently, each serving all its classes' trials (0 = one per CPU, 1 = serial)")
		journalP = fs.String("journal", "", "NDJSON file recording every completed (mechanism, workload) pair, for -resume (empty: no file and no resume)")
		resume   = fs.Bool("resume", false, "reuse pairs journaled by a previous invocation of the same campaign instead of re-running them")
		verbose  = fs.Bool("v", false, "log every completed pair, one line per state class")
		telAddr  = fs.String("telemetry", "", "serve the live telemetry plane on this address (/metrics, /debug/cells); empty disables")
		eventsP  = fs.String("events", "", "write a structured NDJSON event log to this file (empty disables)")
		replay   = fs.String("replay", "", "re-run one recorded trial token (fi1;spec=...;...) instead of a campaign")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		return replayTrial(*replay, stdout, stderr)
	}
	if *trials < 1 || !(*frac > 0 && *frac <= 1) {
		fmt.Fprintf(stderr, "mtexc-faultinject: -trials %d -frac %g: want -trials at least 1 and -frac in (0, 1]\n", *trials, *frac)
		return 2
	}

	fc := harness.FaultCampaign{
		Seed:       *seed,
		Trials:     *trials,
		WindowFrac: *frac,
	}
	var err error
	if fc.Classes, err = parseClasses(*classes); err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 2
	}
	if fc.Mechs, err = parseMechs(*mechs); err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 2
	}
	if *specs != "" {
		fc.Specs = strings.Split(*specs, ",")
	}

	// A SIGINT/SIGTERM cancels in-flight cells; cells journaled before
	// the signal survive for a later -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	journal, err := harness.OpenJournal(*journalP, *resume)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 1
	}
	defer journal.Close()
	if *resume && *verbose && *journalP != "" {
		fmt.Fprintf(stderr, "resuming: %d journaled cell(s) in %s\n", journal.Len(), *journalP)
	}
	opt := harness.Options{
		Parallelism: *parallel,
		Journal:     journal,
		Context:     ctx,
	}
	if *verbose {
		opt.Progress = stderr
	}

	var telSrv *telemetry.Server
	if *telAddr != "" || *eventsP != "" {
		plane := telemetry.NewPlane()
		if *eventsP != "" {
			events, err := telemetry.OpenLog(*eventsP, telemetry.LevelInfo)
			if err != nil {
				fmt.Fprintln(stderr, "mtexc-faultinject:", err)
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
		if *telAddr != "" {
			telSrv, err = plane.Serve(*telAddr)
			if err != nil {
				fmt.Fprintln(stderr, "mtexc-faultinject:", err)
				return 1
			}
			defer telSrv.Close()
			fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics\n", telSrv.Addr())
		}
		opt.Telemetry = plane
	}

	rep, err := harness.RunFaultCampaign(opt, fc)
	rep.WriteText(stdout)
	if err != nil {
		var ee *harness.ExperimentError
		if errors.As(err, &ee) {
			fmt.Fprintf(stderr, "\nmtexc-faultinject: %d cell(s) failed:\n", len(ee.Cells))
			for _, ce := range ee.Cells {
				fmt.Fprintf(stderr, "  %v\n", ce)
				if repro := ce.Repro(); repro != "" {
					fmt.Fprintf(stderr, "    repro: %s\n", repro)
				}
			}
		} else {
			fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		}
		return 1
	}
	return 0
}

// replayTrial re-runs one recorded trial and verifies its outcome
// class reproduces. The printed lines are a pure function of the
// token, so two replays of the same token are byte-identical.
func replayTrial(token string, stdout, stderr io.Writer) int {
	rt, err := faultinject.ParseReplayToken(token)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 2
	}
	p, err := gen.ParseSpec(rt.Spec)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 2
	}
	b, err := faultinject.NewBaseline(p, rt.Mech)
	if err != nil {
		fmt.Fprintln(stderr, "mtexc-faultinject:", err)
		return 1
	}
	t := faultinject.RunTrial(p, rt.Mech, b, rt.Plan)
	fmt.Fprintf(stdout, "replay %s under %s: class=%s at=%d seed=%#x\n",
		rt.Spec, rt.Mech.Name, rt.Plan.Class, rt.Plan.At, rt.Plan.Seed)
	if t.Fired {
		fmt.Fprintf(stdout, "flip fired at cycle %d: %s\n", t.FiredAt, t.Target)
	} else {
		fmt.Fprintf(stdout, "flip never found a live target\n")
	}
	fmt.Fprintf(stdout, "outcome: %s", t.Outcome)
	if t.Kind != "" {
		fmt.Fprintf(stdout, " (%s: %s)", t.Kind, t.Detail)
	}
	fmt.Fprintln(stdout)
	if t.Outcome != rt.Expect {
		fmt.Fprintf(stderr, "mtexc-faultinject: outcome %s does not reproduce recorded %s\n",
			t.Outcome, rt.Expect)
		return 1
	}
	fmt.Fprintf(stdout, "reproduced recorded outcome %s\n", rt.Expect)
	return 0
}

func parseClasses(s string) ([]cpu.FaultClass, error) {
	if s == "" {
		return nil, nil
	}
	var cls []cpu.FaultClass
	for _, name := range strings.Split(s, ",") {
		c, err := cpu.ParseFaultClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		cls = append(cls, c)
	}
	return cls, nil
}

func parseMechs(s string) ([]faultinject.MechCase, error) {
	if s == "" {
		return nil, nil
	}
	var mcs []faultinject.MechCase
	for _, name := range strings.Split(s, ",") {
		mc, err := faultinject.MechByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		mcs = append(mcs, mc)
	}
	return mcs, nil
}
