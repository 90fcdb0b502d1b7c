package harness

import (
	"testing"

	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// TestRowStoreDropsWithLastCell: a row's values stay while any of its
// cells runs, and its last cell to finish drops them.
func TestRowStoreDropsWithLastCell(t *testing.T) {
	r := newRunner(Options{Parallelism: 1}, "TestRowStoreDropsWithLastCell")
	held := func(row *rowValues) int {
		row.mu.Lock()
		defer row.mu.Unlock()
		return len(row.m)
	}
	var rows []*rowValues
	err := r.forRows(2, 2, func(c *cell, ri, ci int) error {
		if ci == 0 {
			rows = append(rows, c.row)
		}
		if _, err := c.row.get("v", func() (*vm.Image, error) { return &vm.Image{}, nil }); err != nil {
			return err
		}
		switch c.index {
		case 1:
			if n := held(rows[0]); n != 1 {
				t.Errorf("row 0 holds %d values while its last cell runs, want 1", n)
			}
		case 2:
			if n := held(rows[0]); n != 0 {
				t.Errorf("row 0 holds %d values after its last cell finished, want 0", n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := held(rows[1]); n != 0 {
		t.Errorf("row 1 holds %d values after the grid finished, want 0", n)
	}
	if n := r.rowBuilds.Load(); n != 2 {
		t.Errorf("the rows built %d values, want one each", n)
	}
}

// TestRowStoreBuildsEachImageOnce: every machine of a row, its shared
// baseline's included, borrows the row's images, so Figure 5 builds
// each benchmark once (8 over the suite, where its 40 machines built 40
// images), and SharedL2 once per row and start frame: 1 + 2 + 4 + 2 +
// 4 = 13 core images for 25 clusters, where they built 65. Four
// workers per experiment lend from one row's images at once, which
// the race detector checks.
func TestRowStoreBuildsEachImageOnce(t *testing.T) {
	opt := Options{Insts: 2_000, Parallelism: 4}
	r := newRunner(opt, "Figure5")
	if _, err := r.figure5(); err != nil {
		t.Fatal(err)
	}
	if n, want := r.rowBuilds.Load(), int64(len(workload.All())); n != want {
		t.Errorf("Figure5 built %d images, want %d", n, want)
	}
	r = newRunner(opt, "SharedL2")
	if _, err := r.sharedL2(); err != nil {
		t.Fatal(err)
	}
	if n := r.rowBuilds.Load(); n != 13 {
		t.Errorf("SharedL2 built %d core images, want 13", n)
	}
}
