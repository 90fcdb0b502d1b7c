package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"mtexc/internal/core"
	"mtexc/internal/diffsim"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/fastpath"
	"mtexc/internal/faultinject"
	"mtexc/internal/harness"
	"mtexc/internal/mem"
	"mtexc/internal/obs"
	"mtexc/internal/topology"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"exact-fig5", "sampled-fig5", "fault-campaign", "cluster-l2"}

// size is the amount of work in one round of each workload.
type size struct {
	exactInsts   uint64 // per-run budget of exact-fig5
	sampledInsts uint64 // per-cell budget of sampled-fig5
	trials       int    // trials per fault-campaign cell
	l2Insts      uint64 // per-core budget of cluster-l2
}

var (
	fullSize = size{exactInsts: 250_000, sampledInsts: 1_000_000, trials: 40, l2Insts: 150_000}
	// tinySize keeps the test suite's end-to-end runs short.
	tinySize = size{exactInsts: 20_000, sampledInsts: 20_000, trials: 2, l2Insts: 20_000}
)

// bench is one workload: the harness call users make (the timed
// round), the same round as direct calls into each layer with a span
// around every call (the traced round), and a warm-up cell.
type bench struct {
	name     string
	seeded   bool
	cells    int    // experiment cells per round
	workUnit string // what the round's work count counts
	rateName string // end-to-end throughput derived from the work count
	rateUnit string
	rateDiv  float64 // work units per rate unit
	warm     func() error
	harness  func(parallelism int) (string, error)
	traced   func(tr *tracer) (tracedRound, error)
}

// tracedRound is what one traced round produced: the rendered output,
// which must equal the harness round's byte for byte, the round's work
// count, and the per-layer metrics read off its results.
type tracedRound struct {
	out   string
	work  float64
	layer map[string]float64
}

func newBench(name string, seed uint64, sz size, tmp string) (*bench, error) {
	switch name {
	case "exact-fig5":
		return exactFig5(sz.exactInsts, tmp), nil
	case "sampled-fig5":
		return sampledFig5(sz.sampledInsts), nil
	case "fault-campaign":
		return faultCampaign(seed, sz.trials)
	case "cluster-l2":
		return clusterL2(sz.l2Insts)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// failedCells counts the cells a harness error reports as failed; an
// error that is not a per-cell report fails the whole round.
func failedCells(err error, cells int) int {
	var ee *harness.ExperimentError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return len(ee.Cells)
	}
	return cells
}

// mechColumns are the four exception architectures every mechanism
// table compares, with the key of their sim.penalty_avg metric.
var mechColumns = []struct {
	name, key string
	mech      core.Mechanism
	idle      int
}{
	{"traditional", "trad", core.MechTraditional, 0},
	{"multi(1)", "multi1", core.MechMultithreaded, 1},
	{"multi(3)", "multi3", core.MechMultithreaded, 3},
	{"hardware", "hw", core.MechHardware, 0},
}

func mechNames() []string {
	cols := make([]string, len(mechColumns))
	for i, m := range mechColumns {
		cols[i] = m.name
	}
	return cols
}

func benchNames(benches []*workload.Bench) []string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name()
	}
	return names
}

// machineConfig is the Table 1 machine with one application thread,
// idle spare contexts and the harness's instruction and cycle budgets.
func machineConfig(mech core.Mechanism, idle int, insts uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mech = mech
	cfg.Contexts = 1 + idle
	cfg.MaxInsts = insts
	cfg.MaxCycles = 400 * insts
	return cfg
}

func perfectOf(cfg core.Config) core.Config {
	cfg.Mech = core.MechPerfect
	return cfg
}

// penaltyAverages sets sim.penalty_avg.* to the mean of each mechanism
// column over the table's rows, leaving out an "average" row.
func penaltyAverages(t *harness.Table, out map[string]float64) {
	for c, m := range mechColumns {
		var sum float64
		n := 0
		for r, row := range t.Rows {
			if row != "average" {
				sum += t.Get(r, c)
				n++
			}
		}
		out["sim.penalty_avg."+m.key] = sum / float64(n)
	}
}

// simAgg sums simulated statistics over every cycle-accurate machine
// of a traced round.
type simAgg struct {
	insts, cycles, fills, mispredicts float64
	slots                             [obs.NumSlotKinds]float64
	slotTotal                         float64
	l2Hits, l2Misses                  float64
}

func (a *simAgg) add(res core.Result) {
	a.insts += float64(res.AppInsts)
	a.cycles += float64(res.Cycles)
	a.fills += float64(res.DTLBMisses)
	a.mispredicts += float64(res.Stats.Get("bpred.resolved.mispredicts"))
	for _, k := range obs.SlotKinds() {
		a.slots[k] += float64(res.Obs.Slots.Get(k))
	}
	a.slotTotal += float64(res.Obs.Slots.Total())
}

func (a *simAgg) metrics(out map[string]float64) {
	out["sim.ipc"] = ratio(a.insts, a.cycles)
	out["sim.dtlb_fills_per_kinst"] = 1000 * ratio(a.fills, a.insts)
	out["sim.bpred_mispredicts_per_kinst"] = 1000 * ratio(a.mispredicts, a.insts)
	out["sim.slot.useful_app"] = ratio(a.slots[obs.SlotUsefulApp], a.slotTotal)
	out["sim.slot.handler_overhead"] = ratio(a.slots[obs.SlotHandler], a.slotTotal)
	out["sim.slot.squash_waste"] = ratio(a.slots[obs.SlotSquashWaste], a.slotTotal)
	out["sim.slot.window_stall"] = ratio(a.slots[obs.SlotWindowStall], a.slotTotal)
	out["sim.l2shared_miss_rate"] = ratio(a.l2Misses, a.l2Hits+a.l2Misses)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactFig5 is harness.Figure5: every benchmark under the four
// mechanisms, each cell simulated in full against its perfect-TLB
// baseline, with a fresh resume journal per round.
func exactFig5(insts uint64, tmp string) *bench {
	benches := workload.All()
	b := &bench{name: "exact-fig5", cells: len(benches) * len(mechColumns),
		workUnit: "sim_insts", rateName: "sim_minsts_per_s", rateUnit: "Minst/s", rateDiv: 1e6}
	b.warm = func() error {
		cfg := machineConfig(core.MechTraditional, 0, insts)
		if _, err := simulate(nil, cfg, benches[0], &simAgg{}); err != nil {
			return err
		}
		_, err := simulate(nil, perfectOf(cfg), benches[0], &simAgg{})
		return err
	}
	b.harness = func(par int) (string, error) {
		// Opening without resume truncates, so every round simulates
		// and journals all of its runs.
		j, err := harness.OpenJournal(filepath.Join(tmp, "journal.ndjson"), false)
		if err != nil {
			return "", err
		}
		t, err := harness.Figure5(harness.Options{Insts: insts, Parallelism: par, Journal: j})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if t == nil {
			return "", err
		}
		return t.String(), err
	}
	b.traced = func(tr *tracer) (tracedRound, error) {
		t := harness.NewTable("Figure 5: TLB miss penalty by exception architecture (penalty cycles/miss)",
			benchNames(benches), mechNames())
		var agg simAgg
		// Baselines are shared by cells whose machines differ only in
		// mechanism, as the harness's baseline cache shares them.
		perfect := make(map[string]core.Result)
		for bi, w := range benches {
			for ci, m := range mechColumns {
				tr.setCell(bi*len(mechColumns) + ci)
				cfg := machineConfig(m.mech, m.idle, insts)
				subj, err := simulate(tr, cfg, w, &agg)
				if err != nil {
					return tracedRound{}, err
				}
				key := fmt.Sprintf("%s/%d", w.Name(), cfg.Contexts)
				perf, ok := perfect[key]
				if !ok {
					if perf, err = simulate(tr, perfectOf(cfg), w, &agg); err != nil {
						return tracedRound{}, err
					}
					perfect[key] = perf
				}
				t.Set(bi, ci, core.Comparison{Subject: subj, Perfect: perf}.PenaltyPerMiss())
			}
		}
		t.AddAverageRow()
		layer := make(map[string]float64)
		agg.metrics(layer)
		penaltyAverages(t, layer)
		runNs := float64(spanNs(tr.spans, "cpu.run"))
		layer["cpu.run.ns_per_inst"] = ratio(runNs, agg.insts)
		layer["cpu.run.ns_per_cycle"] = ratio(runNs, agg.cycles)
		return tracedRound{out: t.String(), work: agg.insts, layer: layer}, nil
	}
	return b
}

// simulate runs one single-machine simulation as core.RunObserved
// does, one span per public call, and adds the result to agg.
func simulate(tr *tracer, cfg core.Config, w *workload.Bench, agg *simAgg) (core.Result, error) {
	var (
		m   *core.Machine
		res core.Result
		err error
	)
	tr.do("cpu.new", func() { m = core.NewMachine(cfg) })
	tr.do("cpu.load", func() {
		var img *vm.Image
		tr.do("workload.build", func() { img, err = w.Build(m.Phys(), 1) })
		if err != nil {
			return
		}
		if _, err = m.AddProgram(img); err == nil {
			m.WarmPageTable(img.Space)
		}
	})
	if err != nil {
		return res, fmt.Errorf("loading %s: %w", w.Name(), err)
	}
	tr.do("cpu.run", func() { res, err = m.Run() })
	if err != nil {
		return res, err
	}
	var snap *obs.Snapshot
	tr.do("obs.snapshot", func() { snap = core.Snapshot(cfg, []string{w.Name()}, res) })
	if !snap.Slots.Identity {
		return res, fmt.Errorf("%s: slot ledger does not add up to cycles x width", w.Name())
	}
	agg.add(res)
	return res, nil
}

// sampledFig5 is harness.Figure5Sampled: the Figure 5 grid with the
// functional tier executing every instruction and fresh cycle-accurate
// machines simulating periodic windows.
func sampledFig5(insts uint64) *bench {
	benches := workload.All()
	spec := core.SampleSpec{Period: 200_000, Warmup: 10_000, Window: 10_000}
	b := &bench{name: "sampled-fig5", cells: len(benches) * len(mechColumns),
		workUnit: "covered_insts", rateName: "covered_minsts_per_s", rateUnit: "Minst/s", rateDiv: 1e6}
	b.warm = func() error {
		_, err := core.SampleCompare(machineConfig(core.MechTraditional, 0, insts), spec, benches[0])
		return err
	}
	render := func(est, ci *harness.Table, total, detailed uint64) string {
		return fmt.Sprintf("%s\n%s\ntotal_insts %d detailed_insts %d\n", est, ci, total, detailed)
	}
	b.harness = func(par int) (string, error) {
		s, err := harness.Figure5Sampled(harness.Options{Insts: insts, Parallelism: par}, spec)
		if s == nil {
			return "", err
		}
		return render(s.Est, s.CI, s.TotalInsts, s.DetailedInsts), err
	}
	b.traced = func(tr *tracer) (tracedRound, error) {
		est := harness.NewTable(fmt.Sprintf("Figure 5 (sampled %s): TLB miss penalty by exception architecture (penalty cycles/miss)", spec),
			benchNames(benches), mechNames())
		ci := harness.NewTable(fmt.Sprintf("Figure 5 (sampled %s): 95%% confidence half-width", spec),
			benchNames(benches), mechNames())
		var total, detailed, forwarded uint64
		for bi, w := range benches {
			for mi, m := range mechColumns {
				tr.setCell(bi*len(mechColumns) + mi)
				cfg := machineConfig(m.mech, m.idle, insts)
				var (
					s   core.SampledComparison
					err error
				)
				tr.do("core.sample_compare", func() { s, err = core.SampleCompare(cfg, spec, w) })
				if err != nil {
					return tracedRound{}, err
				}
				est.Set(bi, mi, s.PenaltyPerMiss)
				ci.Set(bi, mi, s.CI95)
				total += s.TotalInsts
				detailed += s.DetailedInsts

				// The cell's two main costs again, each alone, so their
				// share of core.sample_compare can be read off the spans:
				// the functional tier over the full budget, and the
				// construction of a subject and a baseline machine per
				// window.
				var eng *fastpath.Engine
				tr.do("fastpath.new", func() {
					var img *vm.Image
					tr.do("workload.build", func() { img, err = w.Build(mem.NewPhysical(), 1) })
					if err == nil {
						eng, err = fastpath.New(img, fastpath.Options{Unaligned: cfg.TrapUnaligned})
					}
				})
				if err != nil {
					return tracedRound{}, err
				}
				tr.do("fastpath.forward", func() { _, err = eng.FastForward(cfg.MaxInsts) })
				if err != nil {
					return tracedRound{}, err
				}
				forwarded += eng.Steps()
				detail := spec.Warmup + spec.Window
				wcfg := cfg
				wcfg.MaxInsts = detail
				wcfg.MaxCycles = 400*detail + 500_000
				for i := 0; i < 2*s.Windows; i++ {
					tr.do("cpu.new", func() { core.NewMachine(wcfg) })
				}
			}
		}
		est.AddAverageRow()
		ci.AddAverageRow()
		layer := make(map[string]float64)
		penaltyAverages(est, layer)
		sampleNs := float64(spanNs(tr.spans, "core.sample_compare"))
		forwardNs := float64(spanNs(tr.spans, "fastpath.forward"))
		layer["sample.construct_share"] = ratio(float64(spanNs(tr.spans, "cpu.new")), sampleNs)
		layer["sample.functional_share"] = ratio(forwardNs, sampleNs)
		layer["sample.detail_frac"] = ratio(float64(detailed), 2*float64(total))
		layer["fastpath.ns_per_inst"] = ratio(forwardNs, float64(forwarded))
		return tracedRound{out: render(est, ci, total, detailed), work: float64(total), layer: layer}, nil
	}
	return b
}

// faultCampaign is harness.RunFaultCampaign on the default grid: every
// state class x mechanism x generated program, each cell classifying
// seeded bit-flip trials against the reference emulator.
func faultCampaign(seed uint64, trials int) (*bench, error) {
	classes := faultinject.DefaultClasses()
	mechs := faultinject.DefaultMechs()
	specs := workload.FaultInjectionSuite()
	progs := make([]*gen.Program, len(specs))
	for i, s := range specs {
		p, err := gen.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	cells := len(classes) * len(mechs) * len(specs)
	b := &bench{name: "fault-campaign", seeded: true, cells: cells,
		workUnit: "trials", rateName: "trials_per_s", rateUnit: "trials/s", rateDiv: 1}
	campaign := harness.FaultCampaign{Seed: seed, Trials: trials}
	b.warm = func() error {
		// A fixed seed keeps set-up time independent of -seed.
		one := harness.FaultCampaign{Trials: trials, Classes: classes[:1], Mechs: mechs[:1], Specs: specs[:1]}
		_, err := harness.RunFaultCampaign(harness.Options{Parallelism: 1}, one)
		return err
	}
	b.harness = func(par int) (string, error) {
		rep, err := harness.RunFaultCampaign(harness.Options{Parallelism: par}, campaign)
		if rep == nil {
			return "", err
		}
		var sb strings.Builder
		rep.WriteText(&sb)
		return sb.String(), err
	}
	b.traced = func(tr *tracer) (tracedRound, error) {
		refs := make(map[string]*diffsim.RefRun)
		bases := make(map[string]*faultinject.Baseline)
		rep := &faultinject.Report{}
		var outcomes [len(outcomeKeys)]float64
		var atSum, cycleSum float64
		nM, nS := len(mechs), len(specs)
		for idx := 0; idx < cells; idx++ {
			tr.setCell(idx)
			class, mc := classes[idx/(nM*nS)], mechs[(idx/nS)%nM]
			prog, spec := progs[idx%nS], specs[idx%nS]
			var err error
			dcase := mc.DiffCase(prog)
			refKey := fmt.Sprintf("%s|%t", spec, dcase.TrapUnaligned)
			ref := refs[refKey]
			if ref == nil {
				tr.do("diffsim.ref_run", func() { ref, err = diffsim.NewRefRun(prog, dcase.TrapUnaligned) })
				if err != nil {
					return tracedRound{}, err
				}
				refs[refKey] = ref
			}
			base := bases[mc.Name+"|"+spec]
			if base == nil {
				tr.do("faultinject.baseline", func() { base, err = faultinject.NewBaselineFrom(prog, mc, ref) })
				if err != nil {
					return tracedRound{}, err
				}
				bases[mc.Name+"|"+spec] = base
			}
			cr := faultinject.CellResult{Class: class, Mech: mc.Name, Spec: spec}
			cellKey := fmt.Sprintf("%s|%s|%s", class, mc.Name, spec)
			for i := 0; i < trials; i++ {
				// Window fraction 0 selects PlanFor's default, as the
				// harness passes it.
				plan := faultinject.PlanFor(seed, cellKey, i, class, base.Cycles, 0)
				var t faultinject.Trial
				tr.do("faultinject.trial", func() { t = faultinject.RunTrial(prog, mc, base, plan) })
				cr.Trials = append(cr.Trials, faultinject.TrialResult{
					Outcome: t.Outcome, At: plan.At, Seed: plan.Seed, Fired: t.Fired})
				outcomes[t.Outcome]++
				atSum += float64(plan.At)
				cycleSum += float64(base.Cycles)
			}
			rep.Cells = append(rep.Cells, cr)
		}
		var sb strings.Builder
		rep.WriteText(&sb)
		n := float64(cells * trials)
		layer := map[string]float64{"faultinject.prefix_share": ratio(atSum, cycleSum)}
		for o, key := range outcomeKeys {
			layer["sim.outcome."+key+"_frac"] = outcomes[o] / n
		}
		return tracedRound{out: sb.String(), work: n, layer: layer}, nil
	}
	return b, nil
}

// outcomeKeys name the sim.outcome.* metrics, indexed by
// faultinject.Outcome.
var outcomeKeys = [...]string{
	faultinject.Masked: "masked", faultinject.Detected: "detected", faultinject.SDC: "sdc",
	faultinject.Hang: "hang", faultinject.Crash: "crash",
}

// l2Shapes are harness.SharedL2's rows: mph measured on core 0, with
// 0, 1 or 3 co-runners sharing the L2.
var l2Shapes = []struct {
	name     string
	cores    int
	corunner string
}{
	{"solo", 1, ""}, {"2c +cmp", 2, "cmp"}, {"4c +cmp", 4, "cmp"}, {"2c +vor", 2, "vor"}, {"4c +vor", 4, "vor"},
}

// clusterL2 is harness.SharedL2: the mechanisms on shared-L2 clusters
// of one, two and four cores under cache-thrashing co-runners.
func clusterL2(insts uint64) (*bench, error) {
	loads := make([][]core.Workload, len(l2Shapes))
	rows := make([]string, len(l2Shapes))
	for si, s := range l2Shapes {
		rows[si] = s.name
		for c := 0; c < s.cores; c++ {
			name := s.corunner
			if c == 0 {
				name = "mph"
			}
			w, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			loads[si] = append(loads[si], w)
		}
	}
	b := &bench{name: "cluster-l2", cells: len(l2Shapes) * len(mechColumns),
		workUnit: "sim_insts", rateName: "sim_minsts_per_s", rateUnit: "Minst/s", rateDiv: 1e6}
	b.warm = func() error {
		cfg := machineConfig(core.MechTraditional, 0, insts)
		if _, err := runCluster(nil, cfg, loads[1], &simAgg{}); err != nil {
			return err
		}
		_, err := runCluster(nil, perfectOf(cfg), loads[1], &simAgg{})
		return err
	}
	b.harness = func(par int) (string, error) {
		t, err := harness.SharedL2(harness.Options{Insts: insts, Parallelism: par})
		if t == nil {
			return "", err
		}
		return t.String(), err
	}
	b.traced = func(tr *tracer) (tracedRound, error) {
		t := harness.NewTable("Shared-L2 topology: core-0 penalty cycles/miss (mph measured, co-runners share the L2)",
			rows, mechNames())
		var agg simAgg
		perfect := make(map[string]core.Result)
		for si := range l2Shapes {
			for mi, m := range mechColumns {
				tr.setCell(si*len(mechColumns) + mi)
				cfg := machineConfig(m.mech, m.idle, insts)
				subj, err := runCluster(tr, cfg, loads[si], &agg)
				if err != nil {
					return tracedRound{}, err
				}
				key := fmt.Sprintf("%d/%d", si, cfg.Contexts)
				perf, ok := perfect[key]
				if !ok {
					if perf, err = runCluster(tr, perfectOf(cfg), loads[si], &agg); err != nil {
						return tracedRound{}, err
					}
					perfect[key] = perf
				}
				t.Set(si, mi, core.Comparison{Subject: subj, Perfect: perf}.PenaltyPerMiss())
			}
		}
		layer := make(map[string]float64)
		agg.metrics(layer)
		penaltyAverages(t, layer)
		layer["topology.ns_per_core_cycle"] = ratio(float64(spanNs(tr.spans, "topology.run")), agg.cycles)
		return tracedRound{out: t.String(), work: agg.insts, layer: layer}, nil
	}
	return b, nil
}

// runCluster simulates one shared-L2 cluster as the harness does and
// returns core 0's result with the cluster-wide statistics attached.
func runCluster(tr *tracer, cfg core.Config, loads []core.Workload, agg *simAgg) (core.Result, error) {
	var (
		cl      *topology.Cluster
		results []core.Result
		err     error
	)
	tr.do("topology.new", func() { cl, err = topology.New(topology.Config{Cores: len(loads), Core: cfg}) })
	if err != nil {
		return core.Result{}, err
	}
	tr.do("topology.load", func() {
		for i, w := range loads {
			if err = cl.Load(i, w); err != nil {
				return
			}
		}
	})
	if err != nil {
		return core.Result{}, err
	}
	tr.do("topology.run", func() { results, err = cl.Run() })
	if err != nil {
		return core.Result{}, err
	}
	res := results[0]
	tr.do("topology.merge_stats", func() { res.Stats = cl.MergedStats(results) })
	for _, r := range results {
		agg.add(r)
	}
	agg.l2Hits += float64(res.Stats.Get("l2shared.hits"))
	agg.l2Misses += float64(res.Stats.Get("l2shared.misses"))
	return res, nil
}
