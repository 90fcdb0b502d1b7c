package obs

import (
	"reflect"
	"testing"

	"mtexc/internal/stats"
)

func TestSlotAccountClone(t *testing.T) {
	a := NewSlotAccount(4)
	a.Use(SlotUsefulApp, 2)
	a.Use(SlotHandler, 1)
	a.EndCycle(SlotIdleContext)

	c := a.CloneInto(nil)
	if c.Total() != a.Total() || c.Cycles() != a.Cycles() {
		t.Fatal("clone ledger differs")
	}
	c.Use(SlotUsefulApp, 3)
	c.EndCycle(SlotIdleContext)
	if a.Cycles() != 1 || a.Get(SlotUsefulApp) != 2 {
		t.Fatal("clone accounting leaked into original")
	}
}

func TestMissRecorderCloneInto(t *testing.T) {
	set := stats.NewSet()
	r := NewMissRecorder(set)
	s1 := r.Begin(1, 0x10, "tlb", "multithreaded", 100)
	s1.FillAt, s1.HandlerDoneAt, s1.RetireAt = 110, 120, 125
	r.Finish(s1)
	open := r.Begin(2, 0x20, "tlb", "multithreaded", 200)

	cset := set.CloneInto(nil)
	c := r.CloneInto(cset, nil)
	if c.Completed() != 1 || c.Aborted() != 0 {
		t.Fatal("clone lost span totals")
	}
	if !reflect.DeepEqual(c.Spans(), r.Spans()) {
		t.Fatal("clone retained-span ring differs")
	}

	// A span finished on the clone lands in the clone's stats set; the
	// open span on the original is untouched (the clone holds its own
	// copy by value in no structure — cloning snapshots only finished
	// spans plus counters, and the original still finishes its own).
	s2 := c.Begin(3, 0x30, "tlb", "multithreaded", 300)
	s2.FillAt, s2.HandlerDoneAt, s2.RetireAt = 310, 320, 330
	c.Finish(s2)
	if c.Completed() != 2 || r.Completed() != 1 {
		t.Fatal("clone finish leaked into original")
	}
	if set.Histogram("span.detect2fill").Count() == cset.Histogram("span.detect2fill").Count() {
		t.Fatal("clone histograms still feed the original set")
	}
	open.FillAt = 210
	r.Abort(open)
	if c.Aborted() != 0 {
		t.Fatal("original abort leaked into clone")
	}
}

func TestSamplerCloneContinuesSeries(t *testing.T) {
	// Two counters observed by original and clone; after cloning
	// mid-epoch, identical underlying activity must yield identical
	// series — the rebind closure reads the clone-side counter.
	var origV, cloneV float64
	s := NewSampler(10)
	s.Register("v", SampleRate, func() float64 { return origV })

	for cyc := uint64(1); cyc <= 25; cyc++ {
		origV += 2
		s.Tick(cyc)
	}
	cloneV = origV
	c := s.Clone(func(name string) func() float64 {
		if name != "v" {
			t.Fatalf("rebind asked for unknown series %q", name)
		}
		return func() float64 { return cloneV }
	})

	for cyc := uint64(26); cyc <= 50; cyc++ {
		origV += 2
		cloneV += 2
		s.Tick(cyc)
		c.Tick(cyc)
	}
	s.Flush(50)
	c.Flush(50)
	if !reflect.DeepEqual(s.Series(), c.Series()) {
		t.Fatalf("series diverge:\n%v\n%v", s.Series(), c.Series())
	}
}
