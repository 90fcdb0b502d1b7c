package main

import (
	"context"
	"fmt"
	"io"

	"mtexc/internal/core"
	"mtexc/internal/topology"
)

// runCluster drives the shared-L2 topology path of -cores under ctx:
// one core per workload over a single shared L2 domain, core 0 being
// the measured benchmark. Prints one summary line per core plus the
// shared-L2 aggregates; -stats dumps the merged statistics set
// (per-core counters under coreN. prefixes).
func runCluster(ctx context.Context, cfg core.Config, loads []core.Workload, showStats bool, stopProf func() error, stdout, stderr io.Writer) int {
	cl, err := topology.New(topology.Config{Cores: len(loads), Core: cfg})
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	for i, w := range loads {
		if err := cl.Load(i, w); err != nil {
			fmt.Fprintln(stderr, "mtexcsim:", err)
			return 1
		}
	}
	cl.SetCancel(ctx)
	results, err := cl.Run()
	if err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "mtexcsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "topology   : %d cores, private L1/TLB, shared L2 (%d KB)\n",
		cl.Cores(), cfg.Hier.L2.Size>>10)
	fmt.Fprintf(stdout, "mechanism  : %s\n", cfg.Mech)
	fmt.Fprintf(stdout, "machine    : %d-wide, %d-entry window, %d-entry DTLB, %d contexts per core\n",
		cfg.Width, cfg.WindowSize, cfg.DTLBEntries, cfg.Contexts)
	names := cl.WorkloadNames()
	for i, res := range results {
		fmt.Fprintf(stdout, "core %d     : %-12s %10d cycles  %9d insts  IPC %.3f  %6d DTLB fills\n",
			i, names[i], res.Cycles, res.AppInsts, res.IPC, res.DTLBMisses)
	}
	dom := cl.Domain()
	fmt.Fprintf(stdout, "shared L2  : %d hits, %d misses, %d evicts, %d memory-bus transfers\n",
		dom.L2.Hits, dom.L2.Misses, dom.L2.Evicts, dom.MemTransfers())
	if showStats {
		fmt.Fprintln(stdout, "\nstatistics:")
		fmt.Fprint(stdout, cl.MergedStats(results).String())
	}
	return 0
}
