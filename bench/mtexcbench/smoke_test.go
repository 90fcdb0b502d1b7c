package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent starts its children by re-executing itself, and a child
// recognises itself by the start-time variable the parent sets.
func TestMain(m *testing.M) {
	if os.Getenv(envT0) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestEveryWorkloadEmitsEveryMetric runs each workload end to end at
// test size, measured and traced, and checks that the summary line
// carries every metric BENCHMARK.json names, with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(layerMetrics()) {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the benchmark emits %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(layerMetrics()))
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			args := []string{"-tiny", "-seconds", "0", "-workload", w, "-out", filepath.Join(dir, "result.json")}
			want := spec.EndToEnd
			if traced {
				args = append(args, "-trace", dir)
				want = spec.PerLayer
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s (traced %t): exit %d\n%s", w, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", w, err)
			}
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
				t.Errorf("%s (traced %t): correct %t, %d attempted, %d failed", w, traced, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (traced %t): %d metrics, want %d", w, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %t): metric %s = %+v (present %t), want unit %s", w, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				for _, f := range []string{"spans-" + w + ".json", "cpu-" + w + ".pprof"} {
					if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
						t.Errorf("%s: traced run wrote no %s: %v", w, f, err)
					}
				}
			}
		}
	}
}
