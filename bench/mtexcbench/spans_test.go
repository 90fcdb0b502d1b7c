package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "outer", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 3, Name: "c", StartNs: 25, EndNs: 35},  // grandchild: b's, not outer's
		{ID: 5, Parent: 1, Name: "d", StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 6, Name: "sibling", StartNs: 100, EndNs: 160},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30, 60}
	got := selfNs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndFoldsMetrics(t *testing.T) {
	tr := newTracer()
	tr.setCell(3)
	tr.do("cpu.load", func() {
		tr.do("workload.build", func() {})
	})
	tr.do("cpu.run", func() {})
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	load, build, run := tr.spans[0], tr.spans[1], tr.spans[2]
	if load.Parent != 0 || build.Parent != load.ID || run.Parent != 0 {
		t.Errorf("parents = %d, %d, %d; want 0, %d, 0", load.Parent, build.Parent, run.Parent, load.ID)
	}
	if build.Cell != 3 || build.StartNs < load.StartNs || build.EndNs > load.EndNs {
		t.Errorf("workload.build %+v does not sit inside cpu.load %+v of cell 3", build, load)
	}

	// The fold reads zero for a name with no spans, and reports the
	// 90th percentile only where asked.
	spans := []span{
		{ID: 1, Name: "cpu.run", StartNs: 0, EndNs: 2e6},
		{ID: 2, Name: "cpu.run", StartNs: 2e6, EndNs: 6e6},
		{ID: 3, Name: "cpu.run", StartNs: 6e6, EndNs: 10e6},
	}
	out := make(map[string]float64)
	spanMetrics(spans, 20e6, []string{"cpu.run", "cpu.new"}, map[string]bool{"cpu.run": true}, out)
	want := map[string]float64{
		"cpu.run.count": 3, "cpu.run.p50_ms": 4, "cpu.run.share": 0.5, "cpu.run.p90_ms": 0,
		"cpu.new.count": 0, "cpu.new.p50_ms": 0, "cpu.new.share": 0,
	}
	if len(out) != len(want) {
		t.Errorf("spanMetrics emitted %v, want exactly the keys of %v", out, want)
	}
	for k, v := range want {
		if got, ok := out[k]; !ok || math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %g (present %t), want %g", k, got, ok, v)
		}
	}
}
