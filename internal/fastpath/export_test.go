package fastpath

// Rebuilds reports how many times a store to a code page invalidated
// and rebuilt the decoded-instruction cache.
func (e *Engine) Rebuilds() uint64 { return e.rebuilds }
