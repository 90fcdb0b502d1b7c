package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec holds the metric lists of BENCHMARK.json.
type benchmarkSpec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"` // Bound is unused: layers have none
}

// bound is one metric's regression rule: the share of A's median by
// which B may be worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges B's samples of one metric against A's:
//   - "worse" when B's median is worse than A's by more than the bound;
//   - "unresolved" when either side's interquartile range exceeds the
//     bound (as a share of its median), unless every sample of one side
//     beats every sample of the other;
//   - otherwise "better" when B's median is better by more than the
//     bound, else "same".
func verdict(a, b []float64, bd bound) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	if ma == 0 || mb == 0 {
		if ma == mb {
			return "same"
		}
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if bd.Better == "higher" {
		worse = -worse
	}
	wide := (qa3-qa1)/ma > bd.Bound || (qb3-qb1)/mb > bd.Bound
	switch {
	case worse > bd.Bound:
		return "worse"
	case wide && !beatsAll(a, b, bd) && !beatsAll(b, a, bd):
		return "unresolved"
	case -worse > bd.Bound:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every sample of x is better than every
// sample of y.
func beatsAll(x, y []float64, bd bound) bool {
	for _, u := range x {
		for _, v := range y {
			if (bd.Better == "higher") != (u > v) || u == v {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}

// compareFiles prints, for each workload in both result files and each
// end-to-end metric of BENCHMARK.json, both sides' median and quartiles
// and the verdict. It reports a regression when any verdict is "worse"
// or B failed a larger share of its cells than A.
func compareFiles(pathA, pathB, specPath string, w io.Writer) (bool, error) {
	var spec benchmarkSpec
	var ra, rb result
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {pathA, &ra}, {pathB, &rb}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	regressed := false
	for _, wa := range ra.Workloads {
		var wb *workloadResult
		for i := range rb.Workloads {
			if rb.Workloads[i].Name == wa.Name {
				wb = &rb.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%s: only in %s\n", wa.Name, pathA)
			continue
		}
		for _, bd := range spec.EndToEnd {
			sa, okA := wa.Metrics[bd.Name]
			sb, okB := wb.Metrics[bd.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s missing from a result file", wa.Name, bd.Name)
			}
			v := verdict(sa.Values, sb.Values, bd)
			if v == "worse" {
				regressed = true
			}
			qa1, ma, qa3 := quartiles(sa.Values)
			qb1, mb, qb3 := quartiles(sb.Values)
			fmt.Fprintf(w, "%-14s %-11s %-2s A %.6g [%.6g, %.6g] n=%d  B %.6g [%.6g, %.6g] n=%d  %+.1f%% (bound %.0f%%)  %s\n",
				wa.Name, bd.Name, bd.Unit, ma, qa1, qa3, len(sa.Values), mb, qb1, qb3, len(sb.Values),
				100*ratio(mb-ma, ma), 100*bd.Bound, v)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		if fb > fa {
			regressed = true
			fmt.Fprintf(w, "%-14s failed cells rose from %.4f to %.4f of attempted: worse\n", wa.Name, fa, fb)
		}
	}
	return regressed, nil
}
