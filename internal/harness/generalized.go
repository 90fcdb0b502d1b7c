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
	r := newRunner(opt, "Generalized")
	densities := []int{4, 16, 64} // inner iterations between POPCs
	cols := make([]string, len(densities))
	for i, d := range densities {
		cols[i] = fmt.Sprintf("1/%d insts", d*12)
	}
	rows := []struct {
		name  string
		mech  core.Mechanism
		idle  int
		quick bool
	}{
		{"traditional", core.MechTraditional, 0, false},
		{"multithreaded(1)", core.MechMultithreaded, 1, false},
		{"quickstart(1)", core.MechMultithreaded, 1, true},
	}
	rowNames := make([]string, len(rows))
	for i, rw := range rows {
		rowNames[i] = rw.name
	}
	t := NewTable("Section 6: software emulation of POPC — penalty cycles per emulated instruction", rowNames, cols)
	t.Note = "baseline: the same machine with POPC implemented in hardware"

	// Phase 1: the hardware-popc baseline per density — every penalty
	// cell subtracts its cycle count.
	baseRes := make([]core.Result, len(densities))
	err1 := r.forEach(len(densities), func(c *cell) error {
		di := c.index
		base := r.baseConfig(core.MechPerfect, 1, 0)
		base.EmulatePopc = false
		res, err := r.exec(c, exactJob(base, workload.NewPopcount(densities[di])))
		if err != nil {
			return err
		}
		baseRes[di] = res
		return nil
	})
	// A failed density baseline poisons its whole column: every
	// penalty cell subtracts its cycle count.
	markFailedCells(t, err1, func(di int) [][2]int {
		col := make([][2]int, len(rows))
		for ri := range rows {
			col[ri] = [2]int{ri, di}
		}
		return col
	})
	// Phase 2: one cell per density × mechanism.
	err2 := r.forEach(len(densities)*len(rows), func(c *cell) error {
		di, ri := c.index/len(rows), c.index%len(rows)
		d, rw := densities[di], rows[ri]
		cfg := r.baseConfig(rw.mech, 1, rw.idle)
		cfg.EmulatePopc = true
		cfg.QuickStart = rw.quick
		res, err := r.exec(c, exactJob(cfg, workload.NewPopcount(d)))
		if err != nil {
			return err
		}
		emus := res.Stats.Get("emu.committed")
		if emus == 0 {
			return fmt.Errorf("harness: no emulations committed for %s", rw.name)
		}
		penalty := float64(int64(res.Cycles)-int64(baseRes[di].Cycles)) / float64(emus)
		t.Set(ri, di, penalty)
		r.log("  popcount/%-3d  %-16s %9d cycles  %6d emus  penalty %.1f",
			d, rw.name, res.Cycles, emus, penalty)
		return nil
	})
	markFailedCells(t, err2, func(i int) [][2]int { return one(i%len(rows), i/len(rows)) })
	return t, joinExperimentErrors("Generalized", err1, err2)
}

// Unaligned evaluates Section 6's second example: unaligned integer
// loads removed from the hardware and serviced by a software handler
// that performs two aligned loads and a merge. The baseline is the
// same machine with hardware unaligned support (one extra cycle per
// access). Columns sweep access density.
func Unaligned(opt Options) (*Table, error) {
	r := newRunner(opt, "Unaligned")
	densities := []int{4, 16, 64}
	cols := make([]string, len(densities))
	for i, d := range densities {
		cols[i] = fmt.Sprintf("1/%d insts", d*8)
	}
	rows := []struct {
		name  string
		mech  core.Mechanism
		idle  int
		quick bool
	}{
		{"traditional", core.MechTraditional, 0, false},
		{"multithreaded(1)", core.MechMultithreaded, 1, false},
		{"quickstart(1)", core.MechMultithreaded, 1, true},
	}
	rowNames := make([]string, len(rows))
	for i, rw := range rows {
		rowNames[i] = rw.name
	}
	t := NewTable("Section 6: software-handled unaligned loads — penalty cycles per unaligned access", rowNames, cols)
	t.Note = "baseline: the same machine with hardware unaligned-load support"

	baseRes := make([]core.Result, len(densities))
	err1 := r.forEach(len(densities), func(c *cell) error {
		di := c.index
		base := r.baseConfig(core.MechPerfect, 1, 0)
		base.TrapUnaligned = true // hardware path still needs byte-accurate loads
		res, err := r.exec(c, exactJob(base, workload.NewUnaligned(densities[di])))
		if err != nil {
			return err
		}
		baseRes[di] = res
		return nil
	})
	markFailedCells(t, err1, func(di int) [][2]int {
		col := make([][2]int, len(rows))
		for ri := range rows {
			col[ri] = [2]int{ri, di}
		}
		return col
	})
	err2 := r.forEach(len(densities)*len(rows), func(c *cell) error {
		di, ri := c.index/len(rows), c.index%len(rows)
		d, rw := densities[di], rows[ri]
		cfg := r.baseConfig(rw.mech, 1, rw.idle)
		cfg.TrapUnaligned = true
		cfg.QuickStart = rw.quick
		res, err := r.exec(c, exactJob(cfg, workload.NewUnaligned(d)))
		if err != nil {
			return err
		}
		n := res.Stats.Get("unaligned.committed")
		if n == 0 {
			return fmt.Errorf("harness: no unaligned handlers committed for %s", rw.name)
		}
		penalty := float64(int64(res.Cycles)-int64(baseRes[di].Cycles)) / float64(n)
		t.Set(ri, di, penalty)
		r.log("  unaligned/%-3d %-16s %9d cycles  %6d traps  penalty %.1f",
			d, rw.name, res.Cycles, n, penalty)
		return nil
	})
	markFailedCells(t, err2, func(i int) [][2]int { return one(i%len(rows), i/len(rows)) })
	return t, joinExperimentErrors("Unaligned", err1, err2)
}
