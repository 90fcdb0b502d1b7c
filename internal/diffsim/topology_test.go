package diffsim

import (
	"fmt"
	"strings"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/topology"
)

var clusterLimits = gen.Limits{MaxPages: 32, MaxTrips: 24, MaxFrags: 8}

// TestClusterSmoke sweeps a handful of co-runner pairs over the
// cluster grid: every core of every topology must agree with its own
// reference run.
func TestClusterSmoke(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := gen.Generate(seed, clusterLimits)
		q := gen.Generate(seed+100, clusterLimits)
		for _, cores := range []int{2, 4} {
			divs, err := CheckTopology(p, q, cores, Options{})
			if err != nil {
				t.Fatalf("seed %d cores %d: %v", seed, cores, err)
			}
			for _, d := range divs {
				t.Errorf("seed %d cores %d: %s\n  repro: %s", seed, cores, d, d.Repro())
			}
		}
	}
}

// TestClusterReproLine locks the repro-command vocabulary: a cluster
// divergence must be reproducible with mtexcsim's -cores/-corunner
// flags.
func TestClusterReproLine(t *testing.T) {
	p := gen.Generate(1, clusterLimits)
	q := gen.Generate(2, clusterLimits)
	d := Divergence{
		Spec:   p.Spec(),
		CoSpec: q.Spec(),
		Cores:  4,
		Case:   clusterGrid(false)[1], // multithreaded
		Kind:   "registers",
	}
	r := d.Repro()
	for _, want := range []string{"-cores 4", "-corunner 'fuzz:" + q.Spec() + "'", "-bench 'fuzz:" + p.Spec() + "'", "-mech multithreaded"} {
		if !strings.Contains(r, want) {
			t.Errorf("repro %q missing %q", r, want)
		}
	}
}

// FuzzClusterDifferential: for any pair of generator seeds and any
// cluster width, every core must stay architecturally identical to
// its own reference run while sharing an L2 with the others.
func FuzzClusterDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, seed*31, uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seedA, seedB int64, width uint8) {
		cores := 2 + int(width%3) // 2..4
		p := gen.Generate(seedA, clusterLimits)
		q := gen.Generate(seedB, clusterLimits)
		divs, err := CheckTopology(p, q, cores, Options{})
		if err != nil {
			t.Fatalf("seeds %d/%d (%s / %s): %v", seedA, seedB, p.Spec(), q.Spec(), err)
		}
		for _, d := range divs {
			t.Errorf("seeds %d/%d: %s\n  repro: %s", seedA, seedB, d, d.Repro())
		}
	})
}

// clusterGrid is the mechanism grid for shared-L2 cluster checks:
// the three real exception architectures at their canonical context
// counts. Perfect is excluded — clusters exist to stress the miss
// handlers, and generated programs may fault.
func clusterGrid(unal bool) []Case {
	return []Case{
		{Name: "traditional", Mech: cpu.MechTraditional, Contexts: 1,
			TrapUnaligned: unal, EmulatePopc: true},
		{Name: "multithreaded", Mech: cpu.MechMultithreaded, Contexts: 2,
			TrapUnaligned: unal, EmulatePopc: true},
		{Name: "hardware", Mech: cpu.MechHardware, Contexts: 1},
	}
}

// runClusterCase executes program p on core 0 and q on every other
// core of a cores-wide shared-L2 cluster, each core cross-checked
// against its own reference-emulator run. Sharing an L2 (and its
// MSHRs and memory bus) is a pure timing matter — any architectural
// difference a co-runner induces is a bug.
func runClusterCase(progs []*programRef, cores int, c Case, cfg cpu.Config) (divs []Divergence) {
	defer func() {
		if r := recover(); r != nil {
			divs = append(divs, Divergence{Case: c, Cores: cores,
				Kind: "panic", Detail: fmt.Sprint(r)})
		}
	}()

	cl, err := topology.New(topology.Config{Cores: cores, Core: cfg})
	if err != nil {
		return append(divs, Divergence{Case: c, Cores: cores, Kind: "error", Detail: err.Error()})
	}
	oracles := make([]oracle, cores)
	for i := 0; i < cores; i++ {
		pr := progs[0]
		if i > 0 {
			pr = progs[1]
		}
		img, err := pr.prog.BuildImage(cl.Phys(), 1, cfg.PageTable)
		if err != nil {
			return append(divs, Divergence{Case: c, Cores: cores, Kind: "error",
				Detail: fmt.Sprintf("core %d: %v", i, err)})
		}
		m := cl.Core(i)
		tid, err := m.AddProgram(img)
		if err != nil {
			return append(divs, Divergence{Case: c, Cores: cores, Kind: "error",
				Detail: fmt.Sprintf("core %d: %v", i, err)})
		}
		m.WarmPageTable(img.Space)
		oracles[i] = oracle{ref: pr.ref, cfg: cfg, tid: tid}
		m.RetireHook = oracles[i].retire
	}

	if _, err := cl.Run(); err != nil {
		divs = append(divs, Divergence{Case: c, Cores: cores, Kind: errKind(err), Detail: err.Error()})
	}
	for i := range oracles {
		if kind, detail := oracles[i].verify(cl.Core(i)); kind != "" {
			divs = append(divs, Divergence{Case: c, Cores: cores, Kind: kind,
				Detail: fmt.Sprintf("core %d: %s", i, detail)})
		}
	}
	return divs
}

// programRef pairs a generated program with its reference run.
type programRef struct {
	prog *gen.Program
	ref  *RefRun
}

// CheckTopology cross-checks a co-runner pair on shared-L2 clusters:
// program p on core 0, program q on every other core, for each
// mechanism in the cluster grid. Every core is compared against its
// own single-threaded reference-emulator run — the shared L2 must be
// architecturally invisible no matter what the neighbours do to it.
// A non-nil error means one of the programs is invalid (a generator
// problem, not a core bug).
func CheckTopology(p, q *gen.Program, cores int, opt Options) ([]Divergence, error) {
	if cores < 2 {
		cores = 2
	}
	unal := p.HasUnaligned() || q.HasUnaligned()
	refs := map[bool][]*programRef{}
	getRefs := func(trap bool) ([]*programRef, error) {
		if pair, ok := refs[trap]; ok {
			return pair, nil
		}
		rp, err := NewRefRun(p, trap)
		if err != nil {
			return nil, fmt.Errorf("diffsim: reference run of %s: %w", p.Spec(), err)
		}
		rq, err := NewRefRun(q, trap)
		if err != nil {
			return nil, fmt.Errorf("diffsim: reference run of %s: %w", q.Spec(), err)
		}
		pair := []*programRef{{p, rp}, {q, rq}}
		refs[trap] = pair
		return pair, nil
	}
	var divs []Divergence
	for _, c := range clusterGrid(unal) {
		if opt.Mech != "" && c.Mech.String() != opt.Mech {
			continue
		}
		pair, err := getRefs(c.TrapUnaligned)
		if err != nil {
			return nil, err
		}
		steps := pair[0].ref.Res.Steps
		if s := pair[1].ref.Res.Steps; s > steps {
			steps = s
		}
		ds := runClusterCase(pair, cores, c, c.Config(steps))
		for i := range ds {
			ds[i].Spec = p.Spec()
			ds[i].CoSpec = q.Spec()
		}
		divs = append(divs, ds...)
	}
	return divs, nil
}
