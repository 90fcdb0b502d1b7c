package vm_test

import (
	"testing"

	"mtexc/internal/mem"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// copySpace returns a copy of space over a copy-on-write clone of its
// memory, free to diverge from it.
func copySpace(space *vm.AddressSpace) *vm.AddressSpace {
	return space.CloneInto(space.Phys().CloneInto(nil))
}

// TestEqualContentMatchesContentHash: EqualContent holds exactly when
// ContentHash is equal. Every suite workload is built twice, at
// different physical frames, under both page-table organizations: the
// two images compare equal. Copies with one byte changed, with one
// page added, and with one page removed compare unequal, both ways
// round, as their hashes do. -short covers the linear organization.
func TestEqualContentMatchesContentHash(t *testing.T) {
	orgs := []vm.PTOrg{vm.PTLinear, vm.PTTwoLevel}
	if testing.Short() {
		orgs = orgs[:1]
	}
	for _, org := range orgs {
		for i := range workload.All() {
			w := bench(i, org)
			a, err := w.Build(mem.NewPhysical(), 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Build(mem.NewPhysicalAt(40), 1)
			if err != nil {
				t.Fatal(err)
			}
			var vpns []uint64
			a.Space.ForEachMapped(func(vpn uint64) { vpns = append(vpns, vpn) })
			mid := vpns[len(vpns)/2] << vm.PageShift

			byteChanged := copySpace(b.Space)
			if err := byteChanged.WriteU64(mid+72, byteChanged.ReadU64(mid+72)^0x40); err != nil {
				t.Fatal(err)
			}
			pageAdded := copySpace(b.Space)
			if _, err := pageAdded.MapPage(vpns[len(vpns)-1] + 3); err != nil {
				t.Fatal(err)
			}
			pageRemoved := copySpace(b.Space)
			pageRemoved.UnmapPage(vpns[0])

			for _, c := range []struct {
				name  string
				other *vm.AddressSpace
				equal bool
			}{
				{"rebuilt elsewhere", b.Space, true},
				{"one byte changed", byteChanged, false},
				{"one page added", pageAdded, false},
				{"one page removed", pageRemoved, false},
			} {
				for _, pair := range [][2]*vm.AddressSpace{{a.Space, c.other}, {c.other, a.Space}} {
					eq := pair[0].EqualContent(pair[1])
					hashEq := pair[0].ContentHash() == pair[1].ContentHash()
					if eq != c.equal || eq != hashEq {
						t.Errorf("%s/pt%d %s: EqualContent %v, hashes equal %v, want %v",
							w.Name(), org, c.name, eq, hashEq, c.equal)
					}
				}
			}
		}
	}
}
