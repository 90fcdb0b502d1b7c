package bpred

import "testing"

// train drives a deterministic branch pattern into a direction
// predictor.
func train(d DirPredictor, rounds int) {
	hist := uint64(0)
	for i := 0; i < rounds; i++ {
		pc := uint64(0x1000 + (i%17)*4)
		taken := i%3 != 0
		d.Update(pc, hist, taken)
		hist <<= 1
		if taken {
			hist |= 1
		}
	}
}

// agree reports whether two predictors answer a probe set identically.
func agree(a, b DirPredictor) bool {
	hist := uint64(0xa5a5)
	for i := 0; i < 64; i++ {
		pc := uint64(0x1000 + i*4)
		if a.Predict(pc, hist) != b.Predict(pc, hist) {
			return false
		}
		hist = hist<<1 ^ uint64(i)
	}
	return true
}

func TestDirPredictorCloneAndReset(t *testing.T) {
	for _, kind := range []string{"bimodal", "gshare", "yags"} {
		d := NewDirPredictor(kind)
		train(d, 500)

		c := CloneDirPredictor(d)
		if !agree(d, c) {
			t.Errorf("%s: clone disagrees with original", kind)
		}
		// Diverging the clone's training must not drag the original.
		for i := 0; i < 500; i++ {
			c.Update(uint64(0x1000+(i%17)*4), 0, i%2 == 0)
		}
		ref := NewDirPredictor(kind)
		train(ref, 500)
		if !agree(d, ref) {
			t.Errorf("%s: clone training leaked into original", kind)
		}
	}
}

func TestIndirectCloneAndReset(t *testing.T) {
	p := NewIndirect(DefaultIndirectConfig())
	for i := uint64(0); i < 200; i++ {
		p.Update(0x2000+i%13*4, i, 0x9000+i%7*16)
	}
	c := p.Clone()
	for i := uint64(0); i < 64; i++ {
		pt, ph := p.Predict(0x2000+i%13*4, i)
		ct, ch := c.Predict(0x2000+i%13*4, i)
		if pt != ct || ph != ch {
			t.Fatalf("probe %d: clone predicts (%#x,%v), original (%#x,%v)", i, ct, ch, pt, ph)
		}
	}
	c.Update(0x2000, 0, 0xffff)
	if tgt, _ := p.Predict(0x2000, 0); tgt == 0xffff {
		t.Fatal("clone update leaked into original")
	}
}

func TestRASCloneAndReset(t *testing.T) {
	r := NewRAS(8)
	for i := uint64(1); i <= 5; i++ {
		r.Push(0x100 * i)
	}
	c := r.Clone()
	// Popping the clone dry must not disturb the original: both hold
	// the same five entries.
	for _, s := range []*RAS{c, r} {
		for i := uint64(5); i >= 1; i-- {
			if a, ok := s.Pop(); !ok || a != 0x100*i {
				t.Fatalf("pop %d = %#x,%v, want %#x", 6-i, a, ok, 0x100*i)
			}
		}
		if a, ok := s.Pop(); ok {
			t.Fatalf("pop past five entries returned %#x", a)
		}
	}
}
