package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into the simulator, recorded by the benchmark
// around the public function it calls. Parent 0 means top level; Cell
// is the index of the experiment cell the call served.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced round in memory; they are
// written out when the round ends. A nil *tracer records nothing, so
// the warm-up cell runs the same code untraced. Traced rounds run on
// one goroutine, so the tracer needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	cell  int
	open  int // id of the innermost span still running
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span called name, nested under whichever span is
// running when do is called.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.open, Cell: t.cell, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	parent := t.open
	t.open = id
	fn()
	t.open = parent
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// setCell tags the spans that follow with an experiment cell index.
func (t *tracer) setCell(c int) {
	if t != nil {
		t.cell = c
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfNs returns each span's duration minus the part of it its direct
// children cover, indexed like spans.
func selfNs(spans []span) []int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNs - s.StartNs - covered(kids[s.ID], s.StartNs, s.EndNs)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanMetrics folds the spans of one round into the per-layer metrics
// of each name in names: count, median and (when at least ten samples
// lie beyond it) 90th-percentile duration, and self time as a share of
// the round. A name with no spans reads zero throughout.
func spanMetrics(spans []span, roundNs int64, names []string, withP90 map[string]bool, out map[string]float64) {
	self := selfNs(spans)
	durs := make(map[string][]float64)
	selfSum := map[string]int64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.EndNs-s.StartNs)/1e6)
		selfSum[s.Name] += self[i]
	}
	for _, n := range names {
		d := durs[n]
		out[n+".count"] = float64(len(d))
		out[n+".p50_ms"] = median(d)
		out[n+".share"] = float64(selfSum[n]) / float64(roundNs)
		if withP90[n] {
			// An unresolved tail reads zero rather than a percentile
			// backed by fewer than ten samples.
			v, ok := p90(d)
			if !ok {
				v = 0
			}
			out[n+".p90_ms"] = v
		}
	}
}

// spanNs sums the durations of the spans called name.
func spanNs(spans []span, name string) int64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return ns
}
