package harness

import (
	"strings"
	"testing"

	"mtexc/internal/telemetry"
)

// TestReportEndToEnd runs the full reproduction report at a reduced
// scale. It is the most expensive test in the suite and is skipped
// under -short.
func TestReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("report runs the whole evaluation")
	}
	var sb strings.Builder
	plane := telemetry.NewPlane()
	opt := Options{
		Insts:      120_000,
		Benchmarks: []string{"cmp", "vor", "mph"},
		Mixes:      [][3]string{{"cmp", "vor", "mph"}},
		Telemetry:  plane,
	}
	if err := Report(opt, &sb); err != nil {
		t.Fatalf("report failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"# mtexc reproduction report", "## Claims", "REPRODUCED", "11/11 claims reproduced"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if strings.Contains(out, "NOT REPRODUCED") {
		t.Error("report contains failed claims")
	}
	// The report's experiments share one journal, so each distinct run
	// simulates once: Figure 3's 8-wide and Figure 5's traditional
	// columns repeat Figure 2's 7-stage one, Table 3 and Figure 6 each
	// repeat three of Figure 5's columns, and the miss-latency table
	// reads Figure 6's runs. Of the 83, 22 are baselines: Figures 2 and
	// 3 add two machine shapes each per benchmark to the default one,
	// Figure 7 its mix, and the Section 6 studies three densities each.
	var b strings.Builder
	if err := plane.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		want float64
	}{{"mtexc_sims_total", 83}, {"mtexc_baseline_runs_total", 22}} {
		if v, err := scrapeValue(b.String(), m.name); err != nil || v != m.want {
			t.Errorf("%s = %v (%v), want %v", m.name, v, err, m.want)
		}
	}
}
