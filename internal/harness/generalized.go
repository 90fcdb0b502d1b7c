package harness

import (
	"fmt"

	"mtexc/internal/core"
	"mtexc/internal/workload"
)

// Generalized evaluates Section 6's generalized exception mechanism
// on instruction emulation: the POPC opcode is removed from the
// hardware and emulated in software, traditionally or in a handler
// thread. The baseline is the same machine with POPC implemented in
// hardware, so the metric is penalty cycles per emulated instruction
// — the analogue of the TLB study's penalty per miss. Columns sweep
// the emulation density.
func Generalized(opt Options) (*Table, error) {
	return emulationStudy{
		exp:     "Generalized",
		title:   "Section 6: software emulation of POPC — penalty cycles per emulated instruction",
		note:    "baseline: the same machine with POPC implemented in hardware",
		remove:  func(c *core.Config) { c.EmulatePopc = true },
		load:    func(every int) core.Workload { return workload.NewPopcount(every) },
		stride:  12,
		counter: "emu.committed",
	}.run(opt)
}

// Unaligned evaluates Section 6's second example: unaligned integer
// loads removed from the hardware and serviced by a software handler
// that performs two aligned loads and a merge. The baseline is the
// same machine with hardware unaligned support (one extra cycle per
// access). Columns sweep access density.
func Unaligned(opt Options) (*Table, error) {
	return emulationStudy{
		exp:     "Unaligned",
		title:   "Section 6: software-handled unaligned loads — penalty cycles per unaligned access",
		note:    "baseline: the same machine with hardware unaligned-load support",
		remove:  func(c *core.Config) { c.TrapUnaligned = true },
		load:    func(every int) core.Workload { return workload.NewUnaligned(every) },
		stride:  8,
		counter: "unaligned.committed",
	}.run(opt)
}

// emulationStudy is one of Section 6's studies: an operation removed
// from the hardware and serviced by each software mechanism, swept
// over the operation's density. A cell's penalty is its extra cycles
// over its perfect-TLB baseline — core.PerfectOf the subject, which
// performs the operation in hardware — per committed emulation.
type emulationStudy struct {
	exp, title, note string
	// remove takes the operation out of the hardware.
	remove func(*core.Config)
	// load builds the workload with one operation every `every` loop
	// iterations of stride instructions each.
	load   func(every int) core.Workload
	stride int
	// counter is the statistic counting committed emulations.
	counter string
}

func (s emulationStudy) run(opt Options) (*Table, error) {
	r := newRunner(opt, s.exp)
	densities := []int{4, 16, 64} // loop iterations between operations
	cols := make([]string, len(densities))
	for i, d := range densities {
		cols[i] = fmt.Sprintf("1/%d insts", d*s.stride)
	}
	quick := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick.QuickStart = true
	rows := []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multithreaded(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"quickstart(1)", quick},
	}
	t := NewTable(s.title, configNames(rows), cols)
	t.Note = s.note
	// Cells run density-major: cell i is row i%len(rows) of column
	// i/len(rows).
	err := r.forEach(len(densities)*len(rows), func(c *cell) error {
		di, ri := c.index/len(rows), c.index%len(rows)
		cfg := rows[ri].cfg
		s.remove(&cfg)
		cmp, err := r.compare(c, exactJob(cfg, s.load(densities[di])))
		if err != nil {
			return err
		}
		n := cmp.Subject.Stats.Get(s.counter)
		if n == 0 {
			return fmt.Errorf("harness: %s is zero for %s", s.counter, rows[ri].name)
		}
		t.Set(ri, di, float64(int64(cmp.Subject.Cycles)-int64(cmp.Perfect.Cycles))/float64(n))
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int { return one(i%len(rows), i/len(rows)) })
	return t, err
}
