package faultinject

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mtexc/internal/cpu"
)

// TrialResult is the journal-stable record of one trial: enough to
// rebuild the outcome tables and to replay the exact flip.
type TrialResult struct {
	Outcome Outcome
	At      uint64 // plan injection cycle
	Seed    uint64 // plan selection seed
	Fired   bool
}

// CellResult is one campaign cell: every trial of one state class ×
// mechanism × workload combination.
type CellResult struct {
	Class  cpu.FaultClass
	Mech   string
	Spec   string // workload program spec (gen.ParseSpec)
	Trials []TrialResult
}

// Report is a full campaign's worth of classified trials.
type Report struct {
	Cells []CellResult
}

// Sort orders cells deterministically (class, mech, spec) regardless
// of worker-pool completion order, so equal campaigns render equal
// tables at any parallelism.
func (r *Report) Sort() {
	sort.Slice(r.Cells, func(i, j int) bool {
		a, b := r.Cells[i], r.Cells[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Mech != b.Mech {
			return a.Mech < b.Mech
		}
		return a.Spec < b.Spec
	})
}

// counts tallies one cell's outcome histogram.
func counts(trials []TrialResult) (c [len(outcomeNames)]int) {
	for _, t := range trials {
		c[t.Outcome]++
	}
	return c
}

// Summary renders the cell's outcomes as a compact progress token,
// e.g. "3 masked, 1 detected, 1 sdc".
func (c CellResult) Summary() string {
	var parts []string
	for o, n := range counts(c.Trials) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, Outcome(o)))
		}
	}
	if parts == nil {
		return "no trials"
	}
	return strings.Join(parts, ", ")
}

// ReplayToken renders the self-contained one-line descriptor of one
// trial; mtexc-faultinject -replay inverts it and re-runs the flip.
func ReplayToken(spec, mech string, class cpu.FaultClass, at, seed uint64, outcome Outcome) string {
	return fmt.Sprintf("fi1;spec=%s;mech=%s;class=%s;at=%d;seed=0x%x;expect=%s",
		spec, mech, class, at, seed, outcome)
}

// ReplayTrial is a parsed replay token.
type ReplayTrial struct {
	Spec   string
	Mech   MechCase
	Plan   cpu.FaultPlan
	Expect Outcome
}

// ParseReplayToken inverts ReplayToken.
func ParseReplayToken(tok string) (ReplayTrial, error) {
	var rt ReplayTrial
	fields := strings.Split(tok, ";")
	if len(fields) == 0 || fields[0] != "fi1" {
		return rt, fmt.Errorf("faultinject: malformed replay token %q: want fi1;spec=...;mech=...;class=...;at=...;seed=...;expect=...", tok)
	}
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return rt, fmt.Errorf("faultinject: malformed replay field %q", f)
		}
		seen[k] = true
		var err error
		switch k {
		case "spec":
			rt.Spec = v
		case "mech":
			rt.Mech, err = MechByName(v)
		case "class":
			rt.Plan.Class, err = cpu.ParseFaultClass(v)
		case "at":
			rt.Plan.At, err = strconv.ParseUint(v, 10, 64)
		case "seed":
			rt.Plan.Seed, err = strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
		case "expect":
			rt.Expect, err = ParseOutcome(v)
		default:
			err = fmt.Errorf("faultinject: unknown replay field %q", k)
		}
		if err != nil {
			return rt, err
		}
	}
	for _, k := range []string{"spec", "mech", "class", "at", "seed", "expect"} {
		if !seen[k] {
			return rt, fmt.Errorf("faultinject: replay token missing field %q", k)
		}
	}
	return rt, nil
}

// ReplayCommand renders the ready-to-run CLI line for one trial.
func ReplayCommand(spec, mech string, class cpu.FaultClass, at, seed uint64, outcome Outcome) string {
	return fmt.Sprintf("go run ./cmd/mtexc-faultinject -replay '%s'",
		ReplayToken(spec, mech, class, at, seed, outcome))
}

// WriteText renders the campaign: the per-(class × mechanism) outcome
// histogram, the AVF-style vulnerability table (fraction of flips
// that became silent data corruption), and a replay command for every
// SDC trial. The report is a pure function of the sorted cells.
func (r *Report) WriteText(w io.Writer) {
	r.Sort()

	// Collect the axes in sorted-cell order.
	var classes []cpu.FaultClass
	var mechs []string
	haveClass := map[cpu.FaultClass]bool{}
	haveMech := map[string]bool{}
	for _, c := range r.Cells {
		if !haveClass[c.Class] {
			haveClass[c.Class] = true
			classes = append(classes, c.Class)
		}
		if !haveMech[c.Mech] {
			haveMech[c.Mech] = true
			mechs = append(mechs, c.Mech)
		}
	}
	sort.Strings(mechs)

	fmt.Fprintf(w, "Fault-injection campaign: %d cells\n\n", len(r.Cells))
	fmt.Fprintf(w, "Outcome histogram (class x mechanism, all workloads):\n")
	fmt.Fprintf(w, "  %-8s %-8s %8s %8s %8s %8s %8s %8s\n",
		"class", "mech", "trials", "masked", "detected", "sdc", "hang", "crash")
	for _, cl := range classes {
		for _, mech := range mechs {
			var agg [len(outcomeNames)]int
			n := 0
			for _, c := range r.Cells {
				if c.Class != cl || c.Mech != mech {
					continue
				}
				cc := counts(c.Trials)
				for i := range agg {
					agg[i] += cc[i]
				}
				n += len(c.Trials)
			}
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-8s %-8s %8d %8d %8d %8d %8d %8d\n",
				cl, mech, n, agg[Masked], agg[Detected], agg[SDC], agg[Hang], agg[Crash])
		}
	}

	fmt.Fprintf(w, "\nAVF-style vulnerability (%% of flips becoming SDC):\n")
	fmt.Fprintf(w, "  %-8s", "class")
	for _, mech := range mechs {
		fmt.Fprintf(w, " %8s", mech)
	}
	fmt.Fprintln(w)
	avfRow := func(name string, match func(CellResult) bool) {
		fmt.Fprintf(w, "  %-8s", name)
		for _, mech := range mechs {
			sdc, n := 0, 0
			for _, c := range r.Cells {
				if c.Mech != mech || !match(c) {
					continue
				}
				cc := counts(c.Trials)
				sdc += cc[SDC]
				n += len(c.Trials)
			}
			if n == 0 {
				fmt.Fprintf(w, " %8s", "-")
			} else {
				fmt.Fprintf(w, " %7.1f%%", 100*float64(sdc)/float64(n))
			}
		}
		fmt.Fprintln(w)
	}
	for _, cl := range classes {
		cl := cl
		avfRow(cl.String(), func(c CellResult) bool { return c.Class == cl })
	}
	avfRow("all", func(CellResult) bool { return true })

	var sdcLines []string
	for _, c := range r.Cells {
		for _, t := range c.Trials {
			if t.Outcome == SDC {
				sdcLines = append(sdcLines,
					"  "+ReplayCommand(c.Spec, c.Mech, c.Class, t.At, t.Seed, SDC))
			}
		}
	}
	if len(sdcLines) > 0 {
		fmt.Fprintf(w, "\nSDC replays (%d):\n%s\n", len(sdcLines), strings.Join(sdcLines, "\n"))
	}
}
