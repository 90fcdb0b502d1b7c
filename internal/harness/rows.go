package harness

import (
	"fmt"
	"sync/atomic"

	"mtexc/internal/core"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
)

// rowValues holds what the cells of one row of an experiment's grid
// share while any of them runs. A row's cells run one set of workloads
// on machines of one shape, so they share the image each workload
// builds at a given start frame (lentLoad). The first job to need a
// value builds it; a job asking meanwhile waits on that build and
// shares its value or its error, as with a shared baseline. The row's
// last cell to finish drops the row's values (forRows), so only the
// rows in progress hold theirs. A sampled Figure 5 row shares one walk
// instead, so its cell is the whole row (sampledRow).
type rowValues struct {
	flight[*vm.Image]
	left atomic.Int32 // cells of the row not yet finished
}

// forRows runs body over the cells of a rows × cols grid (forEach):
// cell i sits at row i/cols and column i%cols, and c.row holds its
// row's shared values, which go when the row's last cell finishes.
func (r *runner) forRows(rows, cols int, body func(c *cell, ri, ci int) error) error {
	vals := make([]rowValues, rows)
	for i := range vals {
		vals[i].left.Store(int32(cols))
	}
	return r.forEach(rows*cols, func(c *cell) error {
		ri := c.index / cols
		c.row = &vals[ri]
		defer func() {
			if c.row.left.Add(-1) == 0 {
				r.rowBuilds.Add(c.row.runs.Load())
				c.row.forgetAll()
			}
		}()
		return body(c, ri, c.index%cols)
	})
}

// lentLoad is a workload of a job that shares its row's images: Build
// lends each machine the image the row built for the workload at the
// machine's next free frame (vm.Image.LendTo), building it there the
// first time, so every machine of the row that loads the workload at
// that frame shares one build.
type lentLoad struct {
	core.Workload
	row *rowValues
}

func (l lentLoad) Build(phys *mem.Physical, asn uint8) (*vm.Image, error) {
	start := phys.NextFree()
	key := fmt.Sprintf("image|%s|%d|%d", workloadID(l.Workload), asn, start)
	img, err := l.row.get(key, func() (*vm.Image, error) {
		return l.Workload.Build(mem.NewPhysicalAt(start), asn)
	})
	if err != nil {
		return nil, err
	}
	return img.LendTo(phys)
}
