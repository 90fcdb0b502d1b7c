package mtexc_bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerSnapshots checks the committed performance ledger. Every
// BENCH_*.json at the repository root must be what `make
// bench-compare` writes: a full-size `bash bench/run.sh -seed 1`
// result that `bash bench/run.sh -compare` can read. So it covers
// every workload of BENCHMARK.json, has samples of every end-to-end
// metric, failed no cell, and matched the workload's committed
// expected output (a -tiny run has no expected files and says so in
// its check line instead).
func TestLedgerSnapshots(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readLedgerJSON(t, "BENCHMARK.json", &spec)
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json snapshot")
	}
	for _, path := range paths {
		var res struct {
			Workloads []struct {
				Name    string `json:"name"`
				Failed  int    `json:"failed"`
				Check   string `json:"check"`
				Metrics map[string]struct {
					Values []float64 `json:"values"`
				} `json:"metrics"`
			} `json:"workloads"`
		}
		readLedgerJSON(t, path, &res)
		seen := make(map[string]bool)
		for _, w := range res.Workloads {
			seen[w.Name] = true
			if w.Failed != 0 {
				t.Errorf("%s: %s failed %d cell(s)", path, w.Name, w.Failed)
			}
			if !strings.HasPrefix(w.Check, "matches ") {
				t.Errorf("%s: %s check %q, want a match with its expected file", path, w.Name, w.Check)
			}
			for _, m := range spec.EndToEnd {
				if len(w.Metrics[m.Name].Values) == 0 {
					t.Errorf("%s: %s has no %s samples", path, w.Name, m.Name)
				}
			}
		}
		for _, want := range spec.Workloads {
			if !seen[want.Name] {
				t.Errorf("%s: no %s workload", path, want.Name)
			}
		}
	}
}

func readLedgerJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
