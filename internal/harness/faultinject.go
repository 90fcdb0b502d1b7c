package harness

import (
	"context"
	"fmt"
	"slices"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/faultinject"
	"mtexc/internal/stats"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// FaultCampaign parameterizes one transient-fault injection sweep:
// the state-class × mechanism × workload grid and the per-cell trial
// count. The zero value for Classes/Mechs/Specs selects the defaults.
type FaultCampaign struct {
	// Seed drives every per-trial plan derivation; equal seeds over
	// equal grids produce identical reports at any parallelism.
	Seed uint64
	// Trials is the number of injections per grid cell (default 5).
	Trials int
	// Classes is the state-class axis (default: reg, handler, tlb,
	// window).
	Classes []cpu.FaultClass
	// Mechs is the mechanism axis (default: trad, multi1, multi3, hw).
	Mechs []faultinject.MechCase
	// Specs is the workload axis, as gen program specs (default:
	// workload.FaultInjectionSuite).
	Specs []string
	// WindowFrac bounds injection cycles to the first fraction of the
	// unfaulted run (default 0.85; see faultinject.PlanFor).
	WindowFrac float64
}

func (fc FaultCampaign) withDefaults() FaultCampaign {
	if fc.Trials <= 0 {
		fc.Trials = 5
	}
	if len(fc.Classes) == 0 {
		fc.Classes = faultinject.DefaultClasses()
	}
	if len(fc.Mechs) == 0 {
		fc.Mechs = faultinject.DefaultMechs()
	}
	if len(fc.Specs) == 0 {
		fc.Specs = workload.FaultInjectionSuite()
	}
	fc.WindowFrac = faultinject.WindowFrac(fc.WindowFrac)
	return fc
}

// fiWorkload is the journal identity of one campaign cell: the
// generated program plus the campaign's injection parameters (its
// classes, trials, seed and window fraction) that make two cells with
// the same program distinct simulations.
type fiWorkload struct {
	*workload.FuzzProg
	fc FaultCampaign
}

func (w fiWorkload) Key() string {
	return fmt.Sprintf("%s/fi:classes=%v,trials=%d,seed=%d,frac=%g",
		w.FuzzProg.Key(), w.fc.Classes, w.fc.Trials, w.fc.Seed, w.fc.WindowFrac)
}

// fiTrialCounterHelp documents the campaign's telemetry series.
const fiTrialCounterHelp = "Fault-injection trials classified, by outcome."

// RegisterFaultMetrics pre-registers the campaign's outcome counters
// so a scrape before the first trial shows the full catalog. Safe on
// a nil plane.
func RegisterFaultMetrics(p *telemetry.Plane) {
	if p == nil {
		return
	}
	for _, o := range faultinject.Outcomes {
		p.Reg.Counter("mtexc_faultinject_trials_total", fiTrialCounterHelp,
			telemetry.Label{Key: "outcome", Value: o.String()})
	}
}

// RunFaultCampaign sweeps the state-class × mechanism × workload grid
// on the harness worker pool, classifying Trials seeded bit flips per
// report cell against the unfaulted oracle baseline. A harness cell is
// one (mechanism, program) pair, mechanism-major: it runs the pair's
// baseline and serves every class's trials from one forward walk of
// an unarmed machine (faultinject.RunTrials). Cells are isolated like
// any experiment cell (panic containment, CellError reporting), the
// resume journal answers completed cells bit-for-bit, and the
// telemetry plane counts live trials by outcome. The report is
// deterministic in (campaign, grid): identical at any parallelism and
// across journal resumes.
func RunFaultCampaign(opt Options, fc FaultCampaign) (*faultinject.Report, error) {
	fc = fc.withDefaults()
	r := newRunner(opt, "FaultInject")
	RegisterFaultMetrics(opt.Telemetry)

	progs := make([]*workload.FuzzProg, len(fc.Specs))
	for i, spec := range fc.Specs {
		fw, err := workload.ParseFuzz(workload.FuzzPrefix + spec)
		if err != nil {
			return nil, fmt.Errorf("harness: fault campaign workload %d: %w", i, err)
		}
		progs[i] = fw
	}

	// The reference-emulator runs are shared across cells, per
	// (program, architecture variant).
	var refs flight[*diffsim.RefRun]
	nS := len(fc.Specs)
	results := make([][]faultinject.CellResult, len(fc.Mechs)*nS)

	err := r.forEach(len(results), func(c *cell) error {
		mc, fw, spec := fc.Mechs[c.index/nS], progs[c.index%nS], fc.Specs[c.index%nS]
		prog := fw.Program()
		dcase := mc.DiffCase(prog)
		ref, err := refs.get(fmt.Sprintf("%s|%t", spec, dcase.TrapUnaligned),
			func() (*diffsim.RefRun, error) {
				return diffsim.NewRefRun(prog, dcase.TrapUnaligned)
			})
		if err != nil {
			return err
		}
		load := fiWorkload{FuzzProg: fw, fc: fc}
		sim := func(ctx context.Context, _ job, _ *core.Probe) (core.Result, uint64, error) {
			b, err := faultinject.NewBaselineFrom(prog, mc, ref)
			if err != nil {
				return core.Result{}, 0, err
			}
			var plans []cpu.FaultPlan
			for _, class := range fc.Classes {
				cellKey := fmt.Sprintf("%s|%s|%s", class, mc.Name, spec)
				for i := 0; i < fc.Trials; i++ {
					plans = append(plans, faultinject.PlanFor(fc.Seed, cellKey, i, class, b.Cycles, fc.WindowFrac))
				}
			}
			trials, err := faultinject.RunTrials(ctx, prog, mc, b, plans)
			if err != nil {
				return core.Result{}, 0, &cpu.CancelledError{Cause: err}
			}
			for _, t := range trials {
				r.noteTrial(c, spec, mc.Name, t)
			}
			return trialResult(b, trials), 0, nil
		}
		j := job{cfg: faultinject.TrialConfig(dcase, ref.Res.Steps), loads: []core.Workload{load}, sim: sim}
		res, err := r.exec(c, j)
		if err != nil {
			return err
		}
		trials, err := trialsFromCounters(res.Stats, len(fc.Classes)*fc.Trials)
		if err != nil {
			return fmt.Errorf("harness: run %s: %w", j.key(), err)
		}
		crs := make([]faultinject.CellResult, len(fc.Classes))
		for k, class := range fc.Classes {
			crs[k] = faultinject.CellResult{Class: class, Mech: mc.Name, Spec: spec,
				Trials: trials[k*fc.Trials : (k+1)*fc.Trials]}
			r.log("  fi %-8s %-7s %s: %s%s", class, mc.Name, spec, crs[k].Summary(), r.opt.Meter.Suffix())
		}
		results[c.index] = crs
		return nil
	})

	rep := &faultinject.Report{Cells: slices.Concat(results...)}
	rep.Sort()
	return rep, err
}

// noteTrial streams one trial into the telemetry plane: the outcome
// counter, and an event for every silent corruption carrying its
// ready-to-run replay command. A cell's trials are noted in plan
// order, class by class, once the cell's last trial has run.
func (r *runner) noteTrial(c *cell, spec, mech string, t faultinject.Trial) {
	p := r.opt.Telemetry
	if p == nil {
		return
	}
	p.Reg.Counter("mtexc_faultinject_trials_total", fiTrialCounterHelp,
		telemetry.Label{Key: "outcome", Value: t.Outcome.String()}).Inc()
	if t.Outcome != faultinject.SDC || p.Events == nil {
		return
	}
	p.Events.Emit(telemetry.Event{
		Level: telemetry.LevelWarn, Type: "faultinject.sdc",
		Experiment: r.exp, Cell: c.index, Fingerprint: c.subjectKey(),
		Workloads: []string{workload.FuzzPrefix + spec},
		Detail: fmt.Sprintf("%s; target=%s; %s", t.Kind, t.Target,
			faultinject.ReplayCommand(spec, mech, t.Plan.Class, t.Plan.At, t.Plan.Seed, t.Outcome)),
	})
}

// trialResult encodes a completed cell as a journalable Result: the
// baseline's cycle count plus one counter per trial field, in a fixed
// registration order so a resumed cell reconstructs bit-for-bit.
func trialResult(b *faultinject.Baseline, trials []faultinject.Trial) core.Result {
	set := stats.NewSet()
	set.Counter("fi.trials").Value = uint64(len(trials))
	set.Counter("fi.base.cycles").Value = b.Cycles
	for i, t := range trials {
		set.Counter(fmt.Sprintf("fi.outcome.%d", i)).Value = uint64(t.Outcome)
		set.Counter(fmt.Sprintf("fi.at.%d", i)).Value = t.Plan.At
		set.Counter(fmt.Sprintf("fi.seed.%d", i)).Value = t.Plan.Seed
		if fired := set.Counter(fmt.Sprintf("fi.fired.%d", i)); t.Fired {
			fired.Value = 1
		}
	}
	return core.Result{Cycles: b.Cycles, Stats: set}
}

// trialsFromCounters inverts trialResult for a cell of n trials. A
// trial count other than n, a per-trial counter the encoding always
// writes that the result lacks, or an outcome outside
// faultinject.Outcomes fails the cell instead of reading as a masked
// trial or indexing past the outcome histogram: such a result is not
// the cell's record.
func trialsFromCounters(set *stats.Set, n int) ([]faultinject.TrialResult, error) {
	var bad error
	get := func(format string, i int) uint64 {
		name := fmt.Sprintf(format, i)
		v, ok := set.Lookup(name)
		if !ok && bad == nil {
			bad = fmt.Errorf("harness: fault cell result has no %s counter", name)
		}
		return v
	}
	if got := set.Get("fi.trials"); got != uint64(n) {
		return nil, fmt.Errorf("harness: fault cell result holds fi.trials %d, want %d", got, n)
	}
	trials := make([]faultinject.TrialResult, n)
	for i := range trials {
		o := get("fi.outcome.%d", i)
		if o >= uint64(len(faultinject.Outcomes)) && bad == nil {
			bad = fmt.Errorf("harness: fault cell result holds fi.outcome.%d %d, not an outcome", i, o)
		}
		trials[i] = faultinject.TrialResult{
			Outcome: faultinject.Outcome(o),
			At:      get("fi.at.%d", i),
			Seed:    get("fi.seed.%d", i),
			Fired:   get("fi.fired.%d", i) == 1,
		}
	}
	return trials, bad
}
