package main

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a measuring run reports for every workload,
// each as the median of its samples.
var endToEnd = []metricDef{
	{"round_s", "s"},     // host seconds per round of fixed work
	{"setup_s", "s"},     // child start to first timed round
	{"alloc_mb", "MB"},   // heap bytes allocated per round
	{"rss_p90_mb", "MB"}, // 90th percentile of the resident set during a round
}

// spanNames are the public calls the traced rounds time. Each yields
// <name>.count, .p50_ms and .share, and the names in p90Spans also
// .p90_ms.
var spanNames = []string{
	"workload.build", "cpu.new", "cpu.load", "cpu.run", "obs.snapshot",
	"core.sample_compare", "fastpath.new", "fastpath.forward",
	"diffsim.ref_run", "faultinject.baseline", "faultinject.trial",
	"topology.new", "topology.load", "topology.run", "topology.merge_stats",
}

// p90Spans are the calls made often enough in one full-size round (320
// window machines, 1920 trials) to leave ten samples beyond the 90th
// percentile.
var p90Spans = map[string]bool{"cpu.new": true, "faultinject.trial": true}

// derivedMetrics are the per-layer metrics a traced round computes from
// its spans and results; a workload that does not exercise one reports
// zero for it.
var derivedMetrics = []metricDef{
	{"cpu.run.ns_per_inst", "ns/inst"},
	{"cpu.run.ns_per_cycle", "ns/cycle"},
	{"fastpath.ns_per_inst", "ns/inst"},
	{"sample.construct_share", "frac"},
	{"sample.functional_share", "frac"},
	{"sample.detail_frac", "frac"},
	{"faultinject.prefix_share", "frac"},
	{"topology.ns_per_core_cycle", "ns/cycle"},
	{"trace.overhead_frac", "frac"},
	{"sim.ipc", "inst/cycle"},
	{"sim.dtlb_fills_per_kinst", "1/kinst"},
	{"sim.bpred_mispredicts_per_kinst", "1/kinst"},
	{"sim.slot.useful_app", "frac"},
	{"sim.slot.handler_overhead", "frac"},
	{"sim.slot.squash_waste", "frac"},
	{"sim.slot.window_stall", "frac"},
	{"sim.l2shared_miss_rate", "frac"},
	{"sim.penalty_avg.trad", "cycles/miss"},
	{"sim.penalty_avg.multi1", "cycles/miss"},
	{"sim.penalty_avg.multi3", "cycles/miss"},
	{"sim.penalty_avg.hw", "cycles/miss"},
	{"sim.outcome.masked_frac", "frac"},
	{"sim.outcome.detected_frac", "frac"},
	{"sim.outcome.sdc_frac", "frac"},
	{"sim.outcome.hang_frac", "frac"},
	{"sim.outcome.crash_frac", "frac"},
}

// layerMetrics lists every per-layer metric a traced run reports.
func layerMetrics() []metricDef {
	var ms []metricDef
	for _, n := range spanNames {
		ms = append(ms, metricDef{n + ".count", "count"}, metricDef{n + ".p50_ms", "ms"})
		if p90Spans[n] {
			ms = append(ms, metricDef{n + ".p90_ms", "ms"})
		}
		ms = append(ms, metricDef{n + ".share", "frac"})
	}
	ms = append(ms, derivedMetrics...)
	for _, g := range profGroups {
		ms = append(ms, metricDef{"prof." + g, "frac"})
	}
	return ms
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, m := range layerMetrics() {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
