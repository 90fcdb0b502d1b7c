package obs

// SampleMode selects how a registered source is turned into a series
// value at each epoch boundary.
type SampleMode uint8

const (
	// SampleLevel records the source's instantaneous value.
	SampleLevel SampleMode = iota
	// SampleDelta records the increase of a cumulative source over
	// the epoch.
	SampleDelta
	// SampleRate records the increase of a cumulative source divided
	// by the epoch length in cycles (per-cycle rate; a retired-
	// instruction source yields IPC).
	SampleRate
)

// Series is one sampled time series: parallel slices of epoch-end
// cycles and values.
type Series struct {
	Name   string    `json:"name"`
	Cycles []uint64  `json:"cycles"`
	Values []float64 `json:"values"`
}

type source struct {
	name string
	mode SampleMode
	fn   func() float64
	last float64
	out  Series
}

// Sampler snapshots registered sources every Every cycles. The
// simulation drives it with Tick once per cycle and closes the final
// partial epoch with Flush.
type Sampler struct {
	every     uint64
	lastEpoch uint64
	sources   []*source
}

// NewSampler returns a sampler with the given epoch length in cycles
// (minimum 1).
func NewSampler(every uint64) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{every: every}
}

// Register adds a source. fn is read at every epoch boundary; for
// SampleDelta and SampleRate it must be cumulative (monotonic).
func (s *Sampler) Register(name string, mode SampleMode, fn func() float64) {
	s.sources = append(s.sources, &source{
		name: name,
		mode: mode,
		fn:   fn,
		out:  Series{Name: name},
	})
}

// Tick advances the sampler to the given cycle, sampling when a
// boundary is crossed. Call once per simulated cycle.
func (s *Sampler) Tick(cycle uint64) {
	if cycle == 0 || cycle%s.every != 0 {
		return
	}
	s.sample(cycle)
}

// Flush closes the final partial epoch at the end of a run, so short
// runs and run tails still produce at least one point.
func (s *Sampler) Flush(cycle uint64) {
	if cycle > s.lastEpoch {
		s.sample(cycle)
	}
}

func (s *Sampler) sample(cycle uint64) {
	span := cycle - s.lastEpoch
	if span == 0 {
		return
	}
	for _, src := range s.sources {
		//lint:allow hotpathlint sampler sources are counter-read closures registered at attach time; sample runs once per interval
		cur := src.fn()
		var v float64
		switch src.mode {
		case SampleLevel:
			v = cur
		case SampleDelta:
			v = cur - src.last
		case SampleRate:
			v = (cur - src.last) / float64(span)
		}
		src.last = cur
		//lint:allow hotpathlint series append once per sample interval (thousands of cycles), not per cycle
		src.out.Cycles = append(src.out.Cycles, cycle)
		//lint:allow hotpathlint same: once per sample interval
		src.out.Values = append(src.out.Values, v)
	}
	s.lastEpoch = cycle
}

// Series returns every registered source's sampled series, in
// registration order.
func (s *Sampler) Series() []Series {
	out := make([]Series, len(s.sources))
	for i, src := range s.sources {
		out[i] = src.out
	}
	return out
}
