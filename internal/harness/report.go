package harness

import (
	"fmt"
	"io"

	"mtexc/internal/core"
	"mtexc/internal/stats"
)

// Claim is one checkable statement from the paper, with the measured
// evidence.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// Report runs the full evaluation and writes a markdown report that
// checks every reproducible claim of the paper against the measured
// results — the automated companion to EXPERIMENTS.md.
func Report(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "# mtexc reproduction report\n\n")
	fmt.Fprintf(w, "Instruction budget per run: %d\n\n", opt.insts())

	var claims []Claim
	addClaim := func(id, text string, pass bool, detail string) {
		claims = append(claims, Claim{id, text, pass, detail})
	}
	emitTable := func(t *Table) {
		fmt.Fprintf(w, "```\n%s```\n\n", t.String())
	}

	// Figure 2.
	f2, err := Figure2(opt)
	if err != nil {
		return err
	}
	emitTable(f2)
	slope := (f2.Cell("average", "11 stages") - f2.Cell("average", "3 stages")) / 8
	addClaim("fig2", "trap penalty grows ~2 cycles per front-end stage",
		slope > 0.8 && slope < 4,
		fmt.Sprintf("measured slope %.2f cycles/stage (paper ~2)", slope))

	// Figure 3.
	f3, err := Figure3(opt)
	if err != nil {
		return err
	}
	emitTable(f3)
	rel8 := f3.Cell("average", "8w/128win")
	addClaim("fig3", "relative TLB-handling time grows with machine width",
		rel8 > 1.1,
		fmt.Sprintf("8-wide relative time %.2fx the 2-wide machine", rel8))

	// Figure 5.
	f5, err := Figure5(opt)
	if err != nil {
		return err
	}
	emitTable(f5)
	trad := f5.Cell("average", "traditional")
	m1 := f5.Cell("average", "multi(1)")
	m3 := f5.Cell("average", "multi(3)")
	hw := f5.Cell("average", "hardware")
	addClaim("fig5-halve", "multithreaded handling roughly halves the traditional penalty",
		trad/m1 > 1.4 && trad/m1 < 3.5,
		fmt.Sprintf("traditional/multithreaded = %.2f (paper 1.94)", trad/m1))
	addClaim("fig5-extra", "extra idle contexts add only modest benefit",
		m3 <= m1*1.05 && m3 > m1*0.5,
		fmt.Sprintf("multi(3) %.1f vs multi(1) %.1f", m3, m1))
	addClaim("fig5-hw", "the hardware walker is the performance floor",
		hw < m3 && hw < trad,
		fmt.Sprintf("hardware %.1f vs software %.1f-%.1f", hw, m3, trad))

	// Table 3.
	t3, err := Table3(opt)
	if err != nil {
		return err
	}
	emitTable(t3)
	multi := t3.Cell("multithreaded", "penalty/miss")
	instant := t3.Cell("instant fetch", "penalty/miss")
	worstBW := 0.0
	for _, row := range []string{"no exec bw", "no window", "no fetch bw"} {
		if v := t3.Cell(row, "penalty/miss") - multi; v > worstBW {
			worstBW = v
		}
	}
	addClaim("table3", "fetch/decode latency is the dominant handler overhead",
		instant < multi-1 && worstBW < 1,
		fmt.Sprintf("instant fetch saves %.1f cycles; bandwidth/window limits save <1", multi-instant))

	// Figure 6.
	f6, err := Figure6(opt)
	if err != nil {
		return err
	}
	emitTable(f6)
	qs := f6.Cell("average", "quickstart(1)")
	m1b := f6.Cell("average", "multi(1)")
	addClaim("fig6", "quick-start improves multithreaded handling, short of the instant-fetch limit",
		qs < m1b && qs > instant-1,
		fmt.Sprintf("quick-start %.1f vs multi %.1f vs instant limit %.1f", qs, m1b, instant))

	// Figure 7.
	f7, err := Figure7(opt)
	if err != nil {
		return err
	}
	emitTable(f7)
	trad7 := f7.Cell("average", "traditional")
	m17 := f7.Cell("average", "multi(1)")
	qs7 := f7.Cell("average", "quickstart(1)")
	gain := (1 - m17/trad7) * 100
	qgain := (1 - qs7/trad7) * 100
	addClaim("fig7", "SMT compresses but does not eliminate the benefit (paper: ~25%, ~30% quick-started)",
		gain > 5 && qgain > gain-5,
		fmt.Sprintf("multithreaded saves %.0f%%, quick-start %.0f%% of the SMT trap penalty", gain, qgain))
	act := f7.Cell("average", "hdl-active%")
	addClaim("fig7-activity", "one handler context suffices (paper: 5-40% active, ~20% average)",
		act > 1 && act < 60,
		fmt.Sprintf("handler context active %.0f%% of cycles", act))

	// Section 6.
	gen, err := Generalized(opt)
	if err != nil {
		return err
	}
	emitTable(gen)
	gTrad := gen.Cell("traditional", gen.Cols[0])
	gMulti := gen.Cell("multithreaded(1)", gen.Cols[0])
	addClaim("sec6", "the generalized mechanism benefits emulated instructions similarly",
		gMulti < gTrad,
		fmt.Sprintf("emulation penalty %.1f multithreaded vs %.1f traditional", gMulti, gTrad))

	unal, err := Unaligned(opt)
	if err != nil {
		return err
	}
	emitTable(unal)
	uTrad := unal.Cell("traditional", unal.Cols[0])
	uMulti := unal.Cell("multithreaded(1)", unal.Cols[0])
	addClaim("sec6-unaligned", "unaligned-access handling benefits from handler threads too",
		uMulti < uTrad,
		fmt.Sprintf("unaligned penalty %.1f multithreaded vs %.1f traditional", uMulti, uTrad))

	// Where the miss cycles go under each mechanism.
	if err := writeMissLatency(opt, w); err != nil {
		return err
	}

	// Verdict table.
	fmt.Fprintf(w, "## Claims\n\n")
	fmt.Fprintf(w, "| claim | verdict | evidence |\n|---|---|---|\n")
	failed := 0
	for _, c := range claims {
		verdict := "REPRODUCED"
		if !c.Pass {
			verdict = "**NOT REPRODUCED**"
			failed++
		}
		fmt.Fprintf(w, "| %s: %s | %s | %s |\n", c.ID, c.Text, verdict, c.Detail)
	}
	fmt.Fprintf(w, "\n%d/%d claims reproduced.\n", len(claims)-failed, len(claims))
	if failed > 0 {
		return fmt.Errorf("harness: %d claims failed reproduction", failed)
	}
	return nil
}

// spanPhases are the per-miss latency breakdown histograms recorded by
// obs.MissRecorder, in pipeline order (stats names are "span."+phase).
var spanPhases = []string{"detect2fill", "fill2done", "detect2done", "done2retire", "detect2retire"}

// writeMissLatency runs one simulation per mechanism × benchmark and
// renders the per-mechanism miss-latency percentile table: each
// mechanism's span.* histograms merged exactly across the suite
// (bucket-by-bucket, not averaged averages), reported as p50/p95/p99
// cycles per handler phase.
func writeMissLatency(opt Options, w io.Writer) error {
	r := newRunner(opt, "MissLatency")
	benches, err := opt.suite()
	if err != nil {
		return err
	}
	quick := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick.QuickStart = true
	mechs := []namedConfig{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"quickstart(1)", quick},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
	sets := make([]*stats.Set, len(mechs)*len(benches))
	err = r.forEach(len(sets), func(c *cell) error {
		mi, bi := c.index/len(benches), c.index%len(benches)
		res, err := r.exec(c, exactJob(mechs[mi].cfg, benches[bi]))
		if err != nil {
			return err
		}
		sets[c.index] = res.Stats
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Miss-latency percentiles by mechanism (p50/p95/p99 cycles)\n\n")
	fmt.Fprintf(w, "| mechanism | misses |")
	for _, ph := range spanPhases {
		fmt.Fprintf(w, " %s |", ph)
	}
	fmt.Fprintf(w, "\n|---|---:|")
	for range spanPhases {
		fmt.Fprintf(w, "---:|")
	}
	fmt.Fprintln(w)
	for mi := range mechs {
		merged := make(map[string]*stats.Histogram, len(spanPhases))
		for bi := range benches {
			set := sets[mi*len(benches)+bi]
			if set == nil {
				continue
			}
			for _, ph := range spanPhases {
				if h, ok := set.Hist("span." + ph); ok {
					m := merged[ph]
					if m == nil {
						m = stats.NewHistogram(ph)
						merged[ph] = m
					}
					m.Merge(h)
				}
			}
		}
		// Traditional traps record no linked retirement, so the miss
		// count is the best-populated phase, not a fixed one.
		var n uint64
		for _, ph := range spanPhases {
			if h := merged[ph]; h != nil && h.Count() > n {
				n = h.Count()
			}
		}
		fmt.Fprintf(w, "| %s | %d |", mechs[mi].name, n)
		for _, ph := range spanPhases {
			if h := merged[ph]; h != nil && h.Count() > 0 {
				fmt.Fprintf(w, " %d/%d/%d |", h.Percentile(50), h.Percentile(95), h.Percentile(99))
			} else {
				fmt.Fprintf(w, " - |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
