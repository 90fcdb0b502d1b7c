package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"mtexc/internal/cpu"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// bench returns suite workload i under page-table organization org.
func bench(i int, org vm.PTOrg) *workload.Bench {
	b := workload.All()[i]
	if org == vm.PTTwoLevel {
		b.WithTwoLevelPT()
	}
	return b
}

// TestLendMatchesBuild: an image built into a memory of its own and
// lent (Image.LendTo) must leave its target exactly as building it
// there does. Every suite workload, under both page-table
// organizations, goes to three targets: fresh memory, a machine past
// its PAL frames, and a memory past another workload's image, lent in
// one and built in the other as in a shared-L2 cluster. The two
// targets must agree frame for frame (numbers and bytes), on the next
// free frame and the page-table base, and on Translate and InstPA over
// every mapped page. A machine then runs on each of the two images,
// and both must finish alike while the lent image's source keeps its
// ContentHash.
func TestLendMatchesBuild(t *testing.T) {
	insts := uint64(20_000)
	if testing.Short() {
		insts = 4_000
	}
	for _, org := range []vm.PTOrg{vm.PTLinear, vm.PTTwoLevel} {
		cfg := cpu.DefaultConfig()
		cfg.PageTable = org
		cfg.Contexts = 1
		cfg.MaxInsts = insts
		for i := range workload.All() {
			w := bench(i, org)
			other := bench((i+1)%len(workload.All()), org)
			// Each target makes a direct and a lending memory at the
			// same starting point, and the machine over each, if any.
			targets := []struct {
				name string
				make func(lend bool) (*mem.Physical, *cpu.Machine)
			}{
				{"fresh memory", func(bool) (*mem.Physical, *cpu.Machine) { return mem.NewPhysical(), nil }},
				{"past the PAL frames", func(bool) (*mem.Physical, *cpu.Machine) {
					m := cpu.New(cfg)
					return m.Phys(), m
				}},
				{"past " + other.Name(), func(lend bool) (*mem.Physical, *cpu.Machine) {
					phys := mem.NewPhysical()
					if lend {
						lendTo(t, other, phys)
					} else if _, err := other.Build(phys, 1); err != nil {
						t.Fatal(err)
					}
					return phys, nil
				}},
			}
			for _, tg := range targets {
				name := fmt.Sprintf("%s/pt%d %s", w.Name(), org, tg.name)
				direct, dm := tg.make(false)
				want, err := w.Build(direct, 1)
				if err != nil {
					t.Fatal(err)
				}
				lender, lm := tg.make(true)
				src, got := lendTo(t, w, lender)
				sameImage(t, name, want, got)
				if dm == nil {
					continue
				}
				hash := src.Space.ContentHash()
				dres, lres := run(t, dm, want), run(t, lm, got)
				if dres.Cycles != lres.Cycles || dres.AppInsts != lres.AppInsts || dres.DTLBMisses != lres.DTLBMisses {
					t.Errorf("%s: built image ran %d cycles, %d insts, %d fills; lent image %d, %d, %d",
						name, dres.Cycles, dres.AppInsts, dres.DTLBMisses, lres.Cycles, lres.AppInsts, lres.DTLBMisses)
				}
				if h := src.Space.ContentHash(); h != hash {
					t.Errorf("%s: running on the lent image changed its source: hash %#x, was %#x", name, h, hash)
				}
			}
		}
	}
}

// lendTo builds w into a memory of its own that starts at phys's next
// free frame and lends it to phys, returning the source and the lent
// image.
func lendTo(t *testing.T, w *workload.Bench, phys *mem.Physical) (src, lent *vm.Image) {
	t.Helper()
	src, err := w.Build(mem.NewPhysicalAt(phys.NextFree()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if lent, err = src.LendTo(phys); err != nil {
		t.Fatal(err)
	}
	return src, lent
}

// sameImage fails unless got, lent, leaves its memory as want, built
// in place, left its own.
func sameImage(t *testing.T, name string, want, got *vm.Image) {
	t.Helper()
	wp, gp := want.Space.Phys(), got.Space.Phys()
	if wp.NextFree() != gp.NextFree() || want.Space.PTBase() != got.Space.PTBase() || want.CodePA != got.CodePA {
		t.Fatalf("%s: next free frame %d, page-table base %#x, code at %#x; built in place %d, %#x, %#x",
			name, gp.NextFree(), got.Space.PTBase(), got.CodePA, wp.NextFree(), want.Space.PTBase(), want.CodePA)
	}
	for fn := uint64(0); fn < wp.NextFree(); fn++ {
		if *wp.View(fn << mem.FrameShift) != *gp.View(fn << mem.FrameShift) {
			t.Fatalf("%s: frame %d differs from the one built in place", name, fn)
		}
	}
	if want.EntryVA != got.EntryVA || !reflect.DeepEqual(want.Code, got.Code) ||
		!reflect.DeepEqual(want.InitInt, got.InitInt) || !reflect.DeepEqual(want.InitFP, got.InitFP) {
		t.Fatalf("%s: lent image's code, entry point or initial registers differ", name)
	}
	var mapped, same int
	want.Space.ForEachMapped(func(vpn uint64) {
		va := vpn << vm.PageShift
		wpa, _ := want.Space.Translate(va)
		gpa, ok := got.Space.Translate(va)
		mapped++
		if ok && gpa == wpa && got.InstPA(va) == want.InstPA(va) {
			same++
		}
	})
	var lentMapped int
	got.Space.ForEachMapped(func(uint64) { lentMapped++ })
	if same != mapped || lentMapped != mapped {
		t.Fatalf("%s: %d of %d mapped pages translate alike; the lent image maps %d", name, same, mapped, lentMapped)
	}
}

// run loads img onto m, with its page table warm, and runs it.
func run(t *testing.T, m *cpu.Machine, img *vm.Image) cpu.Result {
	t.Helper()
	if _, err := m.AddProgram(img); err != nil {
		t.Fatal(err)
	}
	m.WarmPageTable(img.Space)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}
