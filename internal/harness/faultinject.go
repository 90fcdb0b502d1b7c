package harness

import (
	"context"
	"fmt"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/diffsim/gen"
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
	return fc
}

// fiWorkload is the journal identity of one campaign cell: the
// generated program plus the injection parameters that make two cells
// with the same program distinct simulations.
type fiWorkload struct {
	*workload.FuzzProg
	class  cpu.FaultClass
	trials int
	seed   uint64
	frac   float64
}

func (w fiWorkload) Key() string {
	return fmt.Sprintf("%s/fi:class=%s,trials=%d,seed=%d,frac=%g",
		w.FuzzProg.Key(), w.class, w.trials, w.seed, w.frac)
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
// cell against the unfaulted oracle baseline. Cells are isolated like
// any experiment cell (panic containment, CellError reporting), the
// resume journal answers completed cells bit-for-bit, and the
// telemetry plane counts live trials by outcome. The report is
// deterministic in (campaign, grid): identical at any parallelism and
// across journal resumes.
func RunFaultCampaign(opt Options, fc FaultCampaign) (*faultinject.Report, error) {
	fc = fc.withDefaults()
	r := newRunner(opt, "FaultInject")
	RegisterFaultMetrics(opt.Telemetry)

	progs := make([]*gen.Program, len(fc.Specs))
	for i, spec := range fc.Specs {
		p, err := gen.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("harness: fault campaign workload %d: %w", i, err)
		}
		progs[i] = p
	}

	// The reference-emulator runs and the unfaulted baselines are
	// shared across cells: per (program, architecture variant) and per
	// (mechanism, program) respectively.
	var refs flight[*diffsim.RefRun]
	var bases flight[*faultinject.Baseline]
	nM, nS := len(fc.Mechs), len(fc.Specs)
	n := len(fc.Classes) * nM * nS
	results := make([]faultinject.CellResult, n)

	err := r.forEach(n, func(c *cell) error {
		ci, mi, si := c.index/(nM*nS), (c.index/nS)%nM, c.index%nS
		class, mc, prog := fc.Classes[ci], fc.Mechs[mi], progs[si]
		spec := fc.Specs[si]

		dcase := mc.DiffCase(prog)
		ref, err := refs.get(fmt.Sprintf("%s|%t", spec, dcase.TrapUnaligned),
			func() (*diffsim.RefRun, error) {
				return diffsim.NewRefRun(prog, dcase.TrapUnaligned)
			})
		if err != nil {
			return err
		}
		fw, err := workload.ParseFuzz(workload.FuzzPrefix + spec)
		if err != nil {
			return err
		}
		load := fiWorkload{FuzzProg: fw, class: class, trials: fc.Trials,
			seed: fc.Seed, frac: fc.WindowFrac}
		sim := func(ctx context.Context, _ job, _ *core.Probe) (core.Result, uint64, error) {
			b, err := bases.get(mc.Name+"|"+spec, func() (*faultinject.Baseline, error) {
				return faultinject.NewBaselineFrom(prog, mc, ref)
			})
			if err != nil {
				return core.Result{}, 0, err
			}
			var cr faultinject.CellResult
			cellKey := fmt.Sprintf("%s|%s|%s", class, mc.Name, spec)
			for i := 0; i < fc.Trials; i++ {
				if err := ctx.Err(); err != nil {
					return core.Result{}, 0, &cpu.CancelledError{Cause: err}
				}
				plan := faultinject.PlanFor(fc.Seed, cellKey, i, class, b.Cycles, fc.WindowFrac)
				t := faultinject.RunTrial(prog, mc, b, plan)
				cr.Trials = append(cr.Trials, faultinject.TrialResult{
					Outcome: t.Outcome, At: plan.At, Seed: plan.Seed, Fired: t.Fired,
				})
				r.noteTrial(c, spec, mc.Name, class, plan, t)
			}
			return trialResult(b, cr), 0, nil
		}
		res, err := r.exec(c, job{cfg: faultinject.TrialConfig(dcase, ref.Res.Steps),
			loads: []core.Workload{load}, sim: sim})
		if err != nil {
			return err
		}
		cr := faultinject.CellResult{Class: class, Mech: mc.Name, Spec: spec,
			Trials: trialsFromCounters(res.Stats, fc.Trials)}
		results[c.index] = cr
		r.log("  fi %-8s %-7s %s: %s%s", class, mc.Name, spec,
			trialSummary(cr.Trials), r.opt.Meter.Suffix())
		return nil
	})

	rep := &faultinject.Report{}
	for _, cr := range results {
		if cr.Trials != nil {
			rep.Cells = append(rep.Cells, cr)
		}
	}
	rep.Sort()
	return rep, err
}

// noteTrial streams one live trial into the telemetry plane: the
// outcome counter, and an event for every silent corruption carrying
// its ready-to-run replay command.
func (r *runner) noteTrial(c *cell, spec, mech string, class cpu.FaultClass, plan cpu.FaultPlan, t faultinject.Trial) {
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
			faultinject.ReplayCommand(spec, mech, class, plan.At, plan.Seed, t.Outcome)),
	})
}

// trialResult encodes a completed cell as a journalable Result: the
// baseline's cycle count plus one counter per trial field, in a fixed
// registration order so a resumed cell reconstructs bit-for-bit.
func trialResult(b *faultinject.Baseline, cr faultinject.CellResult) core.Result {
	set := stats.NewSet()
	set.Counter("fi.trials").Value = uint64(len(cr.Trials))
	set.Counter("fi.base.cycles").Value = b.Cycles
	for i, t := range cr.Trials {
		set.Counter(fmt.Sprintf("fi.outcome.%d", i)).Value = uint64(t.Outcome)
		set.Counter(fmt.Sprintf("fi.at.%d", i)).Value = t.At
		set.Counter(fmt.Sprintf("fi.seed.%d", i)).Value = t.Seed
		if t.Fired {
			set.Counter(fmt.Sprintf("fi.fired.%d", i)).Value = 1
		} else {
			set.Counter(fmt.Sprintf("fi.fired.%d", i)).Value = 0
		}
	}
	return core.Result{Cycles: b.Cycles, Stats: set}
}

// trialsFromCounters inverts trialResult.
func trialsFromCounters(set *stats.Set, n int) []faultinject.TrialResult {
	trials := make([]faultinject.TrialResult, n)
	for i := range trials {
		trials[i] = faultinject.TrialResult{
			Outcome: faultinject.Outcome(set.Get(fmt.Sprintf("fi.outcome.%d", i))),
			At:      set.Get(fmt.Sprintf("fi.at.%d", i)),
			Seed:    set.Get(fmt.Sprintf("fi.seed.%d", i)),
			Fired:   set.Get(fmt.Sprintf("fi.fired.%d", i)) == 1,
		}
	}
	return trials
}

// trialSummary renders a cell's outcomes as a compact progress token,
// e.g. "3 masked, 1 detected, 1 sdc".
func trialSummary(trials []faultinject.TrialResult) string {
	var counts [5]int
	for _, t := range trials {
		if int(t.Outcome) < len(counts) {
			counts[t.Outcome]++
		}
	}
	s := ""
	for _, o := range faultinject.Outcomes {
		if counts[o] == 0 {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%d %s", counts[o], o)
	}
	if s == "" {
		return "no trials"
	}
	return s
}
