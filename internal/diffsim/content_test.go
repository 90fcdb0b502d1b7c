package diffsim

import (
	"fmt"
	"sync"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim/gen"
)

// TestMemoryContentCheck: the oracle compares a run's mapped pages
// with the reference's (vm.AddressSpace.EqualContent), yet reports a
// difference exactly as the hash check it replaced did. A run that
// maps one page the reference never mapped diverges in memory, with
// the two spaces' ContentHash in its Detail, and the same run without
// that page passes. Oracles of every grid case then compare against
// the one reference run at once.
func TestMemoryContentCheck(t *testing.T) {
	p := gen.Generate(4700, gen.Limits{NoFault: true, NoUnaligned: true})
	ref, err := NewRefRun(p, false)
	if err != nil {
		t.Fatal(err)
	}
	c := Case{Name: "traditional", Mech: cpu.MechTraditional, Contexts: 1, EmulatePopc: true}
	cfg := c.Config(ref.Res.Steps)
	if rr := RunCaseConfigured(p, c, cfg, ref, nil); rr.Div != nil {
		t.Fatalf("unperturbed run diverges: %v", rr.Div)
	}
	var m *cpu.Machine
	rr := RunCaseConfigured(p, c, cfg, ref, func(mm *cpu.Machine) {
		m = mm
		space := mm.Space(0)
		if _, err := space.MapPage(space.MaxVPN() - 1); err != nil {
			t.Fatal(err)
		}
	})
	want := fmt.Sprintf("mapped-memory hash %#x != reference %#x", m.Space(0).ContentHash(), ref.Space.ContentHash())
	if rr.Div == nil || rr.Div.Kind != "memory" || rr.Div.Detail != want {
		t.Fatalf("run with an extra page: divergence %v, want memory: %s", rr.Div, want)
	}

	var wg sync.WaitGroup
	cases := Grid(p)
	divs := make([]*Divergence, len(cases))
	for i, gc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			divs[i] = RunCaseConfigured(p, gc, gc.Config(ref.Res.Steps), ref, nil).Div
		}()
	}
	wg.Wait()
	for i, d := range divs {
		if d != nil {
			t.Errorf("%s, checked concurrently: %v", cases[i].Name, d)
		}
	}
}
