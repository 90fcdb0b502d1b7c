package main

import (
	"math"
	"testing"
)

// topFiles is trimmed `go tool pprof -top -files` output from a
// -trimpath build, with duplicate and "(inline)" rows and every unit.
const topFiles = `File: mtexcbench
Type: cpu
Duration: 1.91s, Total samples = 2.5s (97.54%)
Showing nodes accounting for 2.5s, 100% of 2.5s total
      flat  flat%   sum%        cum   cum%
     0.50s 20.00% 20.00%      0.50s 20.00%  mtexc@v0.0.0/internal/cpu/uop.go (inline)
     0.25s 10.00% 30.00%      0.30s 12.00%  mtexc@v0.0.0/internal/cpu/uop.go
     500ms 20.00% 50.00%      600ms 24.00%  mtexc@v0.0.0/internal/cpu/fetch.go
     250ms 10.00% 60.00%      250ms 10.00%  mtexc@v0.0.0/internal/cpu/thread.go
     200ms  8.00% 68.00%      200ms  8.00%  internal/runtime/maps/runtime_fast64_swiss.go (inline)
     150ms  6.00% 74.00%      150ms  6.00%  runtime/mgcmark.go
     100ms  4.00% 78.00%      100ms  4.00%  runtime/memclr_amd64.s
     100ms  4.00% 82.00%      100ms  4.00%  runtime/memmove_amd64.s
     100ms  4.00% 86.00%      100ms  4.00%  mtexc@v0.0.0/internal/core/sample.go
     100ms  4.00% 90.00%      100ms  4.00%  mtexc@v0.0.0/internal/mem/physical.go
     0.20s  8.00% 98.00%      0.20s  8.00%  /src/repo/internal/harness/journal.go
   50000us  2.00%   100%    50000us  2.00%  mtexc/bench/mtexcbench/spans.go
         0     0%   100%      2.50s   100%  mtexc@v0.0.0/internal/harness/experiments.go
`

func TestFoldSumsInlineRowsAndUnits(t *testing.T) {
	flat, total, err := parseTopFiles(topFiles)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2.5 {
		t.Errorf("total = %g s, want 2.5", total)
	}
	if got := flat["mtexc@v0.0.0/internal/cpu/uop.go"]; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("uop.go flat = %g s, want 0.75 (plain plus inline rows)", got)
	}
	if got := flat["mtexc/bench/mtexcbench/spans.go"]; math.Abs(got-0.05) > 1e-12 {
		t.Errorf("spans.go flat = %g s, want 0.05 from 50000us", got)
	}

	shares := make(map[string]float64)
	for file, v := range flat {
		shares[fileGroup(file, "/src/repo")] += v / total
	}
	want := map[string]float64{
		"cpu.uop": 0.3, "cpu.fetch": 0.2, "cpu.other": 0.1, "runtime.maps": 0.08,
		"runtime.gc_alloc": 0.1, "core_sample": 0.04, "vm": 0.04, "harness": 0.08, "other": 0.06,
	}
	for g, w := range want {
		if math.Abs(shares[g]-w) > 1e-9 {
			t.Errorf("prof.%s = %g, want %g", g, shares[g], w)
		}
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestFoldRejectsUnreadableOutput(t *testing.T) {
	for name, text := range map[string]string{
		"empty":     "",
		"no rows":   "Showing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n",
		"bad unit":  "Showing nodes accounting for 1s, 100% of 1s total\n flat flat% sum% cum cum%\n 1parsec 100% 100% 1s 100% a.go\n",
		"bad total": "Showing nodes accounting for 1s, 100% of everything\n",
		"short row": "Showing nodes accounting for 1s, 100% of 1s total\n flat flat% sum% cum cum%\n 1s 100%\n",
	} {
		if _, _, err := parseTopFiles(text); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseDurUnits(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "850us": 850e-6, "850µs": 850e-6, "410ms": 0.41, "1.25s": 1.25, "1.5mins": 90, "12ns": 12e-9,
	} {
		got, err := parseDur(in)
		if err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseDur(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}
