package harness

// Runs reports how many computations actually executed — the
// duplicate suppression at work.
func (f *flight[V]) Runs() int64 { return f.runs.Load() }
