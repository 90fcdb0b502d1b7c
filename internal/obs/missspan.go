package obs

import "mtexc/internal/stats"

// MissSpan is the life of one software-handled exception, cycle by
// cycle: detection, redirect/spawn, TLB fill (or destination write),
// wakeup of the parked instructions, handler completion, and the
// retirement of the excepting instruction (the splice point). Zero
// fields mean the event never happened for this span (e.g. a
// traditional trap has no linked master retirement; an aborted span
// stops where it was killed).
type MissSpan struct {
	Seq  uint64 `json:"seq"`           // excepting instruction's sequence number
	VPN  uint64 `json:"vpn,omitempty"` // faulting virtual page (TLB misses)
	Kind string `json:"kind"`          // tlb | emu | unaligned
	Mech string `json:"mech"`          // traditional | multithreaded | hardware

	DetectAt      uint64 `json:"detect_at"`                 // miss detected at issue
	FillAt        uint64 `json:"fill_at,omitempty"`         // TLB filled / WRTDEST complete
	WakeAt        uint64 `json:"wake_at,omitempty"`         // parked instructions released
	HandlerDoneAt uint64 `json:"handler_done_at,omitempty"` // RFE retired / walk finished
	RetireAt      uint64 `json:"retire_at,omitempty"`       // excepting instruction retired

	Aborted bool `json:"aborted,omitempty"` // master squashed / handler killed

	done bool // finalized into the histograms
}

// MissRecorder collects MissSpans and folds finished ones into
// latency-breakdown histograms registered in the run's stats.Set:
//
//	span.detect2fill   detection → translation available
//	span.fill2done     fill → handler fully complete
//	span.detect2done   detection → handler fully complete
//	span.done2retire   handler complete → excepting instruction retires
//	span.detect2retire detection → excepting instruction retires
//
// The most recent SpanKeep raw spans are retained for export.
type MissRecorder struct {
	set   *stats.Set
	ring  []MissSpan
	next  int
	total uint64
	abort uint64
}

// SpanKeep is how many raw spans a recorder retains.
const SpanKeep = 256

// NewMissRecorder returns a recorder feeding histograms into set and
// retaining the most recent SpanKeep raw spans.
func NewMissRecorder(set *stats.Set) *MissRecorder {
	return &MissRecorder{set: set, ring: make([]MissSpan, 0, SpanKeep)}
}

// Begin opens a span for an exception detected at cycle detect.
func (r *MissRecorder) Begin(seq, vpn uint64, kind, mech string, detect uint64) *MissSpan {
	//lint:allow hotpathlint span allocated once per exception event, not per instruction
	return &MissSpan{Seq: seq, VPN: vpn, Kind: kind, Mech: mech, DetectAt: detect}
}

// observe records a non-negative cycle delta when both endpoints are
// defined.
func (r *MissRecorder) observe(name string, from, to uint64) {
	if from == 0 || to < from {
		return
	}
	r.set.Histogram(name).Observe(int64(to - from))
}

// Finish finalizes a span: folds its deltas into the breakdown
// histograms and retains the raw record. Double finishes and nil
// spans are ignored.
func (r *MissRecorder) Finish(s *MissSpan) {
	if s == nil || s.done {
		return
	}
	s.done = true
	r.total++
	r.observe("span.detect2fill", s.DetectAt, s.FillAt)
	r.observe("span.fill2done", s.FillAt, s.HandlerDoneAt)
	r.observe("span.detect2done", s.DetectAt, s.HandlerDoneAt)
	r.observe("span.done2retire", s.HandlerDoneAt, s.RetireAt)
	r.observe("span.detect2retire", s.DetectAt, s.RetireAt)
	r.retain(*s)
}

// Abort finalizes a span whose exception never completed (master
// squashed, handler reclaimed or reverted). Aborted spans are
// retained but contribute only to the abort count, not the latency
// histograms — a killed handler's timings would pollute the
// decomposition of real misses.
func (r *MissRecorder) Abort(s *MissSpan) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Aborted = true
	r.abort++
	r.set.Counter("span.aborted").Inc()
	r.retain(*s)
}

func (r *MissRecorder) retain(s MissSpan) {
	if len(r.ring) < SpanKeep {
		//lint:allow hotpathlint ring grows once to its preallocated keep capacity, then overwrites in place
		r.ring = append(r.ring, s)
		return
	}
	r.ring[r.next] = s
	r.next = (r.next + 1) % SpanKeep
}

// Completed reports how many spans finished normally.
func (r *MissRecorder) Completed() uint64 { return r.total }

// Spans returns the retained raw spans in insertion order.
func (r *MissRecorder) Spans() []MissSpan {
	out := make([]MissSpan, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}
