package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mtexc/internal/stats"
	"mtexc/internal/trace"
)

func TestSlotAccountIdentity(t *testing.T) {
	a := NewSlotAccount(4)
	// Cycle 1: 3 useful, residual window-stall.
	a.Use(SlotUsefulApp, 3)
	a.EndCycle(SlotWindowStall)
	// Cycle 2: 1 handler, 1 useful, residual fetch-bubble.
	a.Use(SlotHandler, 1)
	a.Use(SlotUsefulApp, 1)
	a.EndCycle(SlotFetchBubble)
	if err := a.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if got := a.Total(); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
	if a.Get(SlotUsefulApp) != 4 || a.Get(SlotHandler) != 1 ||
		a.Get(SlotWindowStall) != 1 || a.Get(SlotFetchBubble) != 2 {
		t.Errorf("ledger = %v", a.Map())
	}
}

func TestSlotAccountMovePreservesIdentity(t *testing.T) {
	a := NewSlotAccount(2)
	a.Use(SlotUsefulApp, 2)
	a.EndCycle(SlotIdleContext)
	a.Move(SlotUsefulApp, SlotSquashWaste, 1)
	if err := a.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if a.Get(SlotSquashWaste) != 1 || a.Get(SlotUsefulApp) != 1 {
		t.Errorf("ledger after move = %v", a.Map())
	}
	// Over-draining clamps rather than underflowing.
	a.Move(SlotUsefulApp, SlotSquashWaste, 100)
	if err := a.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if a.Get(SlotUsefulApp) != 0 || a.Get(SlotSquashWaste) != 2 {
		t.Errorf("ledger after clamped move = %v", a.Map())
	}
}

func TestSlotAccountIdentityDetectsBreak(t *testing.T) {
	a := NewSlotAccount(2)
	a.EndCycle(SlotIdleContext)
	a.Use(SlotUsefulApp, 1) // booked but cycle never closed
	if err := a.CheckIdentity(); err == nil {
		t.Error("broken ledger passed CheckIdentity")
	}
}

func TestSlotFraction(t *testing.T) {
	a := NewSlotAccount(4)
	if a.Fraction(SlotUsefulApp) != 0 {
		t.Error("empty ledger fraction not 0")
	}
	a.Use(SlotUsefulApp, 1)
	a.EndCycle(SlotWindowStall)
	if got := a.Fraction(SlotUsefulApp); got != 0.25 {
		t.Errorf("Fraction = %v, want 0.25", got)
	}
}

func TestMissRecorderFinish(t *testing.T) {
	set := stats.NewSet()
	r := NewMissRecorder(set)
	s := r.Begin(7, 0x42, "tlb", "multithreaded", 100)
	s.FillAt = 130
	s.WakeAt = 131
	s.HandlerDoneAt = 150
	s.RetireAt = 160
	r.Finish(s)
	r.Finish(s) // double finish must be a no-op
	if r.Completed() != 1 {
		t.Errorf("Completed = %d", r.Completed())
	}
	if got := set.Histogram("span.detect2fill").Mean(); got != 30 {
		t.Errorf("detect2fill mean = %v, want 30", got)
	}
	if got := set.Histogram("span.detect2retire").Mean(); got != 60 {
		t.Errorf("detect2retire mean = %v, want 60", got)
	}
	if n := set.Histogram("span.done2retire").Count(); n != 1 {
		t.Errorf("done2retire count = %d", n)
	}
}

func TestMissRecorderPartialSpanSkipsUndefinedPhases(t *testing.T) {
	set := stats.NewSet()
	r := NewMissRecorder(set)
	// A traditional trap has no linked retirement: RetireAt stays 0.
	s := r.Begin(1, 0, "tlb", "traditional", 50)
	s.FillAt = 70
	s.HandlerDoneAt = 90
	r.Finish(s)
	if n := set.Histogram("span.done2retire").Count(); n != 0 {
		t.Errorf("undefined done2retire observed %d times", n)
	}
	if n := set.Histogram("span.detect2done").Count(); n != 1 {
		t.Errorf("detect2done count = %d", n)
	}
}

func TestMissRecorderAbort(t *testing.T) {
	set := stats.NewSet()
	r := NewMissRecorder(set)
	s := r.Begin(1, 0, "tlb", "multithreaded", 10)
	r.Abort(s)
	r.Abort(s) // idempotent
	r.Abort(nil)
	if r.Aborted() != 1 || r.Completed() != 0 {
		t.Errorf("aborted=%d completed=%d", r.Aborted(), r.Completed())
	}
	if set.Get("span.aborted") != 1 {
		t.Errorf("span.aborted counter = %d", set.Get("span.aborted"))
	}
	if n := set.Histogram("span.detect2fill").Count(); n != 0 {
		t.Error("aborted span polluted latency histograms")
	}
	spans := r.Spans()
	if len(spans) != 1 || !spans[0].Aborted {
		t.Errorf("spans = %+v", spans)
	}
}

func TestMissRecorderRing(t *testing.T) {
	set := stats.NewSet()
	r := NewMissRecorder(set)
	const n = SpanKeep + 3
	for i := uint64(1); i <= n; i++ {
		s := r.Begin(i, 0, "tlb", "hardware", i*10)
		s.FillAt = i*10 + 1
		r.Finish(s)
	}
	spans := r.Spans()
	if len(spans) != SpanKeep || spans[0].Seq != 4 || spans[SpanKeep-1].Seq != n {
		t.Errorf("ring kept %d spans, seq %d..%d; want %d, 4..%d",
			len(spans), spans[0].Seq, spans[len(spans)-1].Seq, SpanKeep, n)
	}
}

func TestSamplerModes(t *testing.T) {
	sp := NewSampler(10)
	level, cum := 0.0, 0.0
	sp.Register("lvl", SampleLevel, func() float64 { return level })
	sp.Register("delta", SampleDelta, func() float64 { return cum })
	sp.Register("rate", SampleRate, func() float64 { return cum })

	for cyc := uint64(1); cyc <= 25; cyc++ {
		level = float64(cyc)
		cum += 2 // 2 events per cycle
		sp.Tick(cyc)
	}
	sp.Flush(25)

	series := sp.Series()
	if len(series) != 3 {
		t.Fatalf("series count = %d", len(series))
	}
	lvl, delta, rate := series[0], series[1], series[2]
	// Boundaries at 10, 20, and the flush at 25.
	wantCycles := []uint64{10, 20, 25}
	for i, s := range series {
		if len(s.Cycles) != 3 {
			t.Fatalf("series %d has %d points", i, len(s.Cycles))
		}
		for j, c := range s.Cycles {
			if c != wantCycles[j] {
				t.Errorf("series %d cycle[%d] = %d, want %d", i, j, c, wantCycles[j])
			}
		}
	}
	if lvl.Values[0] != 10 || lvl.Values[2] != 25 {
		t.Errorf("level values = %v", lvl.Values)
	}
	if delta.Values[0] != 20 || delta.Values[2] != 10 {
		t.Errorf("delta values = %v", delta.Values)
	}
	if rate.Values[0] != 2 || rate.Values[2] != 2 {
		t.Errorf("rate values = %v", rate.Values)
	}
}

func TestSamplerFlushIdempotent(t *testing.T) {
	sp := NewSampler(10)
	sp.Register("x", SampleLevel, func() float64 { return 1 })
	sp.Tick(10)
	sp.Flush(10) // epoch already closed: no duplicate point
	if n := len(sp.Series()[0].Cycles); n != 1 {
		t.Errorf("flush duplicated the epoch: %d points", n)
	}
}

func testObservations() (*stats.Set, *Observations) {
	set := stats.NewSet()
	set.Counter("retire.insts").Add(1000)
	set.Histogram("fill.latency").Observe(20)

	slots := NewSlotAccount(4)
	slots.Use(SlotUsefulApp, 2)
	slots.EndCycle(SlotWindowStall)

	rec := NewMissRecorder(set)
	s := rec.Begin(1, 2, "tlb", "multithreaded", 5)
	s.FillAt, s.HandlerDoneAt, s.RetireAt = 25, 30, 31
	rec.Finish(s)

	sp := NewSampler(5)
	sp.Register("ipc", SampleRate, func() float64 { return 50 })
	sp.Tick(5)

	return set, &Observations{Slots: slots, Misses: rec, Sampler: sp}
}

func TestSnapshotRoundTrip(t *testing.T) {
	set, o := testObservations()
	meta := Meta{
		Benchmarks: []string{"compress"}, Mechanism: "multithreaded",
		Width: 4, Cycles: 1, AppInsts: 1000, IPC: 2.5,
	}
	snap := BuildSnapshot(meta, set, o)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteJSON produced invalid JSON")
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Meta.Mechanism != "multithreaded" {
		t.Errorf("round trip lost identity: %+v", got.Meta)
	}
	if got.Counters["retire.insts"] != 1000 {
		t.Errorf("counters = %v", got.Counters)
	}
	if got.Slots == nil || !got.Slots.Identity || got.Slots.Categories["useful-app"] != 2 {
		t.Errorf("slots = %+v", got.Slots)
	}
	if _, ok := got.Breakdown["span.detect2fill"]; !ok {
		t.Errorf("breakdown = %v", got.Breakdown)
	}
	if h := got.Breakdown["span.detect2fill"]; h.Count != 1 || h.Mean != 20 {
		t.Errorf("detect2fill = %+v", h)
	}
	if len(got.Series) != 1 || got.Series[0].Name != "ipc" {
		t.Errorf("series = %+v", got.Series)
	}
	if len(got.Spans) != 1 || got.Spans[0].Seq != 1 {
		t.Errorf("spans = %+v", got.Spans)
	}
}

func TestReadSnapshotRejectsForeignAndNewer(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader(`{"cycles": 10}`)); err == nil {
		t.Error("schema-less JSON accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Error("newer schema accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBuildSnapshotNilObservations(t *testing.T) {
	snap := BuildSnapshot(Meta{Mechanism: "perfect"}, stats.NewSet(), nil)
	if snap.Slots != nil || snap.Series != nil || snap.Spans != nil {
		t.Errorf("nil observations leaked sections: %+v", snap)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []Series{
		{Name: "ipc", Cycles: []uint64{10, 20}, Values: []float64{2.5, 3}},
		{Name: "miss", Cycles: []uint64{10}, Values: []float64{0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "series,cycle,value\nipc,10,2.5\nipc,20,3\nmiss,10,0.25\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	recs := []trace.Record{
		{Seq: 2, Tid: 0, PC: 0x100, Op: "add", FetchAt: 10, AvailAt: 13,
			WindowAt: 14, IssueAt: 16, DoneAt: 17, EndAt: 18},
		// Squashed with zero stage fields: must render one segment,
		// not underflow.
		{Seq: 3, Tid: 1, PC: 0x104, Op: "ldq", Squashed: true,
			FetchAt: 11, EndAt: 15},
		// Degenerate squash (no progress): dropped.
		{Seq: 4, Tid: 1, PC: 0x108, Op: "beq", Squashed: true,
			FetchAt: 12, EndAt: 12},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			Dur   uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	var stages, squashes int
	for _, e := range parsed.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		stages++
		if e.Name == "squashed" {
			squashes++
			if e.TS != 11 || e.Dur != 4 {
				t.Errorf("squash segment ts=%d dur=%d", e.TS, e.Dur)
			}
		}
		if e.Dur > 1000 {
			t.Errorf("segment %s duration %d looks wrapped", e.Name, e.Dur)
		}
	}
	// Record 2 has all five segments, record 3 one, record 4 none.
	if stages != 6 || squashes != 1 {
		t.Errorf("stages=%d squashes=%d, want 6 and 1", stages, squashes)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err == nil {
		t.Error("empty record set accepted")
	}
}

func TestObservationsSeriesNilSafe(t *testing.T) {
	var o *Observations
	if o.Series() != nil {
		t.Error("nil Observations series not nil")
	}
	if (&Observations{}).Series() != nil {
		t.Error("sampler-less Observations series not nil")
	}
}
