package diffsim

import (
	"errors"
	"fmt"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
	"mtexc/internal/topology"
	"mtexc/internal/vm"
)

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

// coreOracle tracks one cluster core's cross-check against its own
// reference run: the committed-instruction cursor, the first
// mismatch, and the state needed for the final register/memory
// comparison.
type coreOracle struct {
	tid      int
	img      *vm.Image
	ref      *RefRun
	idx      int
	mismatch string
}

// attach wires the oracle's retirement check into the machine,
// mirroring RunCaseConfigured's single-machine streaming comparison.
func (o *coreOracle) attach(m *cpu.Machine, cfg cpu.Config) {
	trace := o.ref.Res.Trace
	m.RetireHook = func(ri cpu.RetiredInst) {
		if ri.Tid != o.tid || ri.PAL || o.mismatch != "" {
			return
		}
		for o.idx < len(trace) {
			e := trace[o.idx]
			if e.PC == ri.PC && e.Op == ri.Op {
				o.idx++
				return
			}
			if skippable(e.Op, cfg) {
				o.idx++
				continue
			}
			o.mismatch = fmt.Sprintf("committed inst %d: machine retired pc=%#x op=%v, reference expects pc=%#x op=%v",
				o.idx, ri.PC, ri.Op, e.PC, e.Op)
			return
		}
		o.mismatch = fmt.Sprintf("machine retired pc=%#x op=%v past the end of the %d-entry reference trace",
			ri.PC, ri.Op, len(trace))
	}
}

// verify checks the post-run architectural state of one core.
func (o *coreOracle) verify(m *cpu.Machine, cfg cpu.Config) (kind, detail string) {
	trace := o.ref.Res.Trace
	if !m.ThreadHalted(o.tid) {
		return "nohalt", fmt.Sprintf("application thread not halted after %d committed of %d reference instructions",
			o.idx, len(trace))
	}
	if o.mismatch != "" {
		return "trace", o.mismatch
	}
	for ; o.idx < len(trace); o.idx++ {
		if !skippable(trace[o.idx].Op, cfg) {
			return "trace", fmt.Sprintf("machine halted with reference inst %d (pc=%#x op=%v) never committed",
				o.idx, trace[o.idx].PC, trace[o.idx].Op)
		}
	}
	if regs := m.ArchRegs(o.tid); regs != o.ref.Res.Regs {
		return "registers", regsDiff(regs, o.ref.Res.Regs)
	}
	if h := o.img.Space.ContentHash(); h != o.ref.Hash {
		return "memory", fmt.Sprintf("mapped-memory hash %#x != reference %#x", h, o.ref.Hash)
	}
	return "", ""
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
	oracles := make([]*coreOracle, cores)
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
		o := &coreOracle{tid: tid, img: img, ref: pr.ref}
		o.attach(m, cfg)
		oracles[i] = o
	}

	if _, err := cl.Run(); err != nil {
		kind := "error"
		var ll *cpu.LivelockError
		if errors.As(err, &ll) {
			kind = "livelock"
		}
		divs = append(divs, Divergence{Case: c, Cores: cores, Kind: kind, Detail: err.Error()})
	}
	for i, o := range oracles {
		if kind, detail := o.verify(cl.Core(i), cfg); kind != "" {
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
