package bpred

// Deep copies of every predictor structure, so a machine can be
// cloned mid-run: both copies continue with identical prediction
// state.

// Clone returns a deep copy of the bimodal predictor.
func (b *Bimodal) Clone() *Bimodal {
	c := *b
	c.table = append([]counter(nil), b.table...)
	return &c
}

// Clone returns a deep copy of the gshare predictor.
func (g *GShare) Clone() *GShare {
	c := *g
	c.table = append([]counter(nil), g.table...)
	return &c
}

// Clone returns a deep copy of the YAGS predictor: choice table,
// both exception caches and the lookup statistics.
func (y *YAGS) Clone() *YAGS {
	c := *y
	c.choice = append([]counter(nil), y.choice...)
	c.tCache = append([]excEntry(nil), y.tCache...)
	c.ntCache = append([]excEntry(nil), y.ntCache...)
	return &c
}

// CloneDirPredictor deep-copies any of the package's direction
// predictors behind the interface.
func CloneDirPredictor(d DirPredictor) DirPredictor {
	switch p := d.(type) {
	case *YAGS:
		return p.Clone()
	case *GShare:
		return p.Clone()
	case *Bimodal:
		return p.Clone()
	}
	panic("bpred: cannot clone unknown DirPredictor implementation")
}

// Clone returns a deep copy of the indirect-target predictor.
func (p *Indirect) Clone() *Indirect {
	c := *p
	c.stage1 = append([]indEntry(nil), p.stage1...)
	c.stage2 = append([]indEntry(nil), p.stage2...)
	return &c
}

// Clone returns a deep copy of the return address stack.
func (r *RAS) Clone() *RAS {
	c := *r
	c.stack = append([]uint64(nil), r.stack...)
	return &c
}
