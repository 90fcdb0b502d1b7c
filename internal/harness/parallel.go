package harness

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mtexc/internal/cpu"
)

// flight single-flights keyed computations: the first caller of a
// key runs it, concurrent callers block on that run, and every caller
// shares its value — so each key computes exactly once per flight.
// The zero value is ready for use.
type flight[V any] struct {
	mu   sync.Mutex
	m    map[string]*flightEntry[V]
	runs atomic.Int64
}

type flightEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// entry returns key's entry, creating it when absent; created
// reports whether this call did.
func (f *flight[V]) entry(key string) (e *flightEntry[V], created bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[string]*flightEntry[V])
	}
	if e = f.m[key]; e == nil {
		e = &flightEntry[V]{}
		f.m[key] = e
		created = true
	}
	return e, created
}

// claim reports whether this is the first call to ask for key, by
// claim or get. A claimant is expected to get the key next; until it
// does, another caller's get still runs it, exactly once.
func (f *flight[V]) claim(key string) bool {
	_, created := f.entry(key)
	return created
}

// forgetAll drops every entry, so the values can be collected; a
// later claim or get of any key starts afresh.
func (f *flight[V]) forgetAll() {
	f.mu.Lock()
	clear(f.m)
	f.mu.Unlock()
}

// get returns the value for key, running run (once) to fill it. A
// panic inside run is captured into the entry's error rather than
// allowed to escape: sync.Once marks itself done even when f panics,
// so an escaping panic would leave every later caller a zero value
// with a nil error — a misleading nil dereference or a silent wrong
// answer instead of a failed cell carrying the original panic.
func (f *flight[V]) get(key string, run func() (V, error)) (V, error) {
	e, _ := f.entry(key)
	e.once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				e.err = &panicError{val: v, stack: debug.Stack()}
			}
		}()
		f.runs.Add(1)
		e.val, e.err = run()
	})
	return e.val, e.err
}

// workers resolves the effective parallelism: Options.Parallelism if
// set, else one worker per available CPU.
func (r *runner) workers() int {
	if r.opt.Parallelism > 0 {
		return r.opt.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs body over cells 0..n-1 on a bounded worker pool. Each
// body call must write only to its own result slot, so table assembly
// is deterministic regardless of completion order.
//
// Failures are contained per cell: a panic or error in one cell is
// captured as a *CellError — carrying the failing configuration,
// workloads and stack — and every other cell still runs to
// completion, so one bad grid point costs one FAIL entry, not the
// whole suite. When any cell failed, the return is an
// *ExperimentError aggregating the failures in index order.
//
// With one worker (or one item) the loop degenerates to the serial
// order, byte-identical to the pre-parallel harness.
func (r *runner) forEach(n int, body func(c *cell) error) error {
	fails := make([]*CellError, n)
	r.opt.Meter.AddCells(n)
	runCell := func(worker, i int) {
		c := &cell{index: i, exp: r.exp}
		c.tel = r.opt.Telemetry.CellStarted(r.exp, i, worker)
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = &panicError{val: v, stack: debug.Stack()}
				}
			}()
			return body(c)
		}()
		if err != nil {
			fails[i] = r.cellError(c, err)
		}
		c.tel.CellFinished(cellStatus(err), errText(err))
		r.opt.Meter.CellDone(err == nil)
	}

	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runCell(0, i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := range idx {
					runCell(worker, i)
				}
			}(w)
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var cells []*CellError
	for _, ce := range fails {
		if ce != nil {
			cells = append(cells, ce)
		}
	}
	if len(cells) == 0 {
		return nil
	}
	return &ExperimentError{Experiment: r.exp, Cells: cells}
}

// cellStatus classifies a cell outcome for telemetry: ok, panic,
// livelock (watchdog abort), timeout (per-cell deadline), or fail.
func cellStatus(err error) string {
	var pe *panicError
	var ll *cpu.LivelockError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &pe):
		return "panic"
	case errors.As(err, &ll):
		return "livelock"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "fail"
}

// errText renders an error for the event log, "" for success.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cellError wraps a cell failure with the context the cell recorded
// before dying: configuration, workloads, fingerprint, and the panic
// stack when there is one.
func (r *runner) cellError(c *cell, err error) *CellError {
	c.mu.Lock()
	ce := &CellError{
		Experiment:  r.exp,
		Index:       c.index,
		Config:      c.cfg,
		Workloads:   c.loads,
		Cores:       c.cores,
		Sample:      c.sample,
		Fingerprint: c.key,
		Timeout:     r.opt.CellTimeout,
		Cause:       err,
	}
	c.mu.Unlock()
	var pe *panicError
	if errors.As(err, &pe) {
		ce.Stack = pe.stack
	}
	return ce
}
