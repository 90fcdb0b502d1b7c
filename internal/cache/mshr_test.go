package cache

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// bruteAdmit is admit as a walk over both files: drop every entry
// complete by t, and when the remaining entries fill the MSHRs, wait
// for the earliest of them.
func bruteAdmit(d, i map[uint64]uint64, t uint64, mshrs int) uint64 {
	for _, m := range []map[uint64]uint64{d, i} {
		maps.DeleteFunc(m, func(_, v uint64) bool { return v <= t })
	}
	if len(d)+len(i) < mshrs {
		return t
	}
	earliest := ^uint64(0)
	for _, m := range []map[uint64]uint64{d, i} {
		for _, v := range m {
			earliest = min(earliest, v)
		}
	}
	return earliest
}

// TestAdmitMatchesBruteForce: admit's lower bound on each file's
// completions may skip walks but never change an answer. Accesses
// arrive at non-monotonic times, some exactly at a completion, over a
// few lines in a tiny L1, so lines are evicted and missed again while
// their fills are in flight (an MSHR entry is overwritten, possibly
// the earliest one), and four MSHRs keep the full branch busy.
func TestAdmitMatchesBruteForce(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.L1D = Config{Size: 128, LineSize: 32, Assoc: 1, Latency: 3}
	cfg.L1I = Config{Size: 128, LineSize: 32, Assoc: 1, Latency: 1}
	cfg.MSHRs = 4
	h := NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 20000; step++ {
		now := uint64(rng.Intn(2000))
		if len(h.mshrD.done) > 0 && rng.Intn(4) == 0 {
			var ends []uint64
			for _, v := range h.mshrD.done {
				ends = append(ends, v)
			}
			slices.Sort(ends)
			now = ends[rng.Intn(len(ends))] // a sweep exactly at a completion
		}
		d, i := maps.Clone(h.mshrD.done), maps.Clone(h.mshrI.done)
		want := bruteAdmit(d, i, now, cfg.MSHRs)
		if got := h.admit(now); got != want {
			t.Fatalf("step %d: admit(%d) = %d, brute force %d", step, now, got, want)
		}
		if !maps.Equal(h.mshrD.done, d) || !maps.Equal(h.mshrI.done, i) {
			t.Fatalf("step %d: admit(%d) kept different entries than the brute-force sweep", step, now)
		}
		pa := uint64(rng.Intn(32)) * 32
		switch rng.Intn(3) {
		case 0:
			h.AccessInst(now, pa)
		default:
			h.AccessData(now, pa, rng.Intn(2) == 0)
		}
	}
	if h.MSHRStalls == 0 {
		t.Fatal("no access found the MSHRs full; the full branch went untested")
	}
}
