package workload

import (
	"fmt"
	"strings"

	"mtexc/internal/diffsim/gen"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// FuzzPrefix marks a benchmark name as a generated differential-
// fuzzing program rather than a Table 2 benchmark.
const FuzzPrefix = "fuzz:"

// FuzzProg adapts a generated program (internal/diffsim/gen) to the
// core.Workload interface, so divergence reproducers emitted by
// mtexc-fuzz replay under the ordinary simulator CLI:
//
//	mtexcsim -bench 'fuzz:v1.s2.p8.t3.f7.k1-17284-15991-10488' -mech traditional
type FuzzProg struct {
	prog  *gen.Program
	ptOrg vm.PTOrg
}

// ParseFuzz resolves a "fuzz:<spec>" benchmark name.
func ParseFuzz(name string) (*FuzzProg, error) {
	spec, ok := strings.CutPrefix(name, FuzzPrefix)
	if !ok {
		return nil, fmt.Errorf("workload: %q is not a %s name", name, FuzzPrefix)
	}
	p, err := gen.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &FuzzProg{prog: p}, nil
}

// WithTwoLevelPT builds the program's address space over a two-level
// page table, mirroring Bench.WithTwoLevelPT.
func (f *FuzzProg) WithTwoLevelPT() *FuzzProg {
	f.ptOrg = vm.PTTwoLevel
	return f
}

// Name returns the replayable benchmark name.
func (f *FuzzProg) Name() string { return FuzzPrefix + f.prog.Spec() }

// Key is the journal-fingerprint identity, folding in the page-table
// organization exactly as Bench.Key does.
func (f *FuzzProg) Key() string { return fmt.Sprintf("%s/pt%d", f.Name(), f.ptOrg) }

// Build assembles and loads the generated program.
func (f *FuzzProg) Build(phys *mem.Physical, asn uint8) (*vm.Image, error) {
	return f.prog.BuildImage(phys, asn, f.ptOrg)
}

// FaultInjectionSuite is the default workload axis of the
// transient-fault campaign: three fixed-seed generated programs,
// fault-free so every TLB miss is a normal handled miss (the campaign
// corrupts state; the programs themselves must be clean), exercising
// different page counts and fragment mixes. Specs, not Programs, so
// they embed verbatim in replay tokens and journal keys.
func FaultInjectionSuite() []string {
	specs := make([]string, 0, 3)
	for _, seed := range []int64{101, 202, 303} {
		specs = append(specs, gen.Generate(seed, gen.Limits{NoFault: true}).Spec())
	}
	return specs
}
