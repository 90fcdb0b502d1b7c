package bpred

// RAS is a checkpointing return address stack (Jourdan et al.): a
// circular stack whose top-of-stack pointer and top entry are saved
// at every prediction checkpoint, so that squashing wrong-path
// instructions restores the stack exactly even after pushes
// overwrote entries.
type RAS struct {
	stack []uint64
	top   int // index of the current top entry; -1-like encoding via depth
	depth int // number of live entries, saturates at len(stack)

	Pushes     uint64
	Pops       uint64
	Underflows uint64
}

// NewRAS returns an empty stack with the given capacity.
func NewRAS(entries int) *RAS {
	return &RAS{stack: make([]uint64, entries), top: -1}
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.Pushes++
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. An empty stack reports ok =
// false (the front end then has no prediction for the return).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		r.Underflows++
		return 0, false
	}
	r.Pops++
	addr = r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return addr, true
}

// Checkpoint captures the state needed to undo any sequence of
// pushes and pops performed after this point.
type Checkpoint struct {
	top      int
	depth    int
	topValue uint64
}

// Checkpoint returns a restore point for the current stack state.
func (r *RAS) Checkpoint() Checkpoint {
	cp := Checkpoint{top: r.top, depth: r.depth}
	if r.depth > 0 {
		cp.topValue = r.stack[r.top]
	}
	return cp
}

// Restore rewinds the stack to a previously captured checkpoint.
// Restoring the saved top entry repairs the common corruption case
// where a wrong-path push overwrote the caller's return address.
func (r *RAS) Restore(cp Checkpoint) {
	r.top = cp.top
	r.depth = cp.depth
	if cp.depth > 0 {
		r.stack[cp.top] = cp.topValue
	}
}
