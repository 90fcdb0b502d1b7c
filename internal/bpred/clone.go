package bpred

// Deep copies of every predictor structure, so a machine can be
// cloned mid-run: both copies continue with identical prediction
// state. Each CloneInto copies into dst, when it is non-nil, and
// returns it: dst's state is overwritten and its tables are reused,
// so recycling a predictor no one uses any more allocates nothing.

// CloneInto returns a deep copy of the bimodal predictor.
func (b *Bimodal) CloneInto(dst *Bimodal) *Bimodal {
	if dst == nil {
		dst = new(Bimodal)
	}
	table := dst.table
	*dst = *b
	dst.table = append(table[:0], b.table...)
	return dst
}

// CloneInto returns a deep copy of the gshare predictor.
func (g *GShare) CloneInto(dst *GShare) *GShare {
	if dst == nil {
		dst = new(GShare)
	}
	table := dst.table
	*dst = *g
	dst.table = append(table[:0], g.table...)
	return dst
}

// CloneInto returns a deep copy of the YAGS predictor: choice table,
// both exception caches and the lookup statistics.
func (y *YAGS) CloneInto(dst *YAGS) *YAGS {
	if dst == nil {
		dst = new(YAGS)
	}
	choice, t, nt := dst.choice, dst.tCache, dst.ntCache
	*dst = *y
	dst.choice = append(choice[:0], y.choice...)
	dst.tCache = append(t[:0], y.tCache...)
	dst.ntCache = append(nt[:0], y.ntCache...)
	return dst
}

// CloneDirPredictorInto deep-copies any of the package's direction
// predictors behind the interface, into dst's tables when dst is a
// predictor of the same kind.
func CloneDirPredictorInto(d, dst DirPredictor) DirPredictor {
	switch p := d.(type) {
	case *YAGS:
		y, _ := dst.(*YAGS)
		return p.CloneInto(y)
	case *GShare:
		g, _ := dst.(*GShare)
		return p.CloneInto(g)
	case *Bimodal:
		b, _ := dst.(*Bimodal)
		return p.CloneInto(b)
	}
	panic("bpred: cannot clone unknown DirPredictor implementation")
}

// CloneInto returns a deep copy of the indirect-target predictor.
func (p *Indirect) CloneInto(dst *Indirect) *Indirect {
	if dst == nil {
		dst = new(Indirect)
	}
	s1, s2 := dst.stage1, dst.stage2
	*dst = *p
	dst.stage1 = append(s1[:0], p.stage1...)
	dst.stage2 = append(s2[:0], p.stage2...)
	return dst
}

// CloneInto returns a deep copy of the return address stack.
func (r *RAS) CloneInto(dst *RAS) *RAS {
	if dst == nil {
		dst = new(RAS)
	}
	stack := dst.stack
	*dst = *r
	dst.stack = append(stack[:0], r.stack...)
	return dst
}
