// Package trace collects per-instruction pipeline lifecycles from the
// simulator and renders them as a text pipeline diagram (one row per
// dynamic instruction, one column per cycle) — the classic way to see
// the difference between a trap (squash hole + refetch) and a spliced
// handler thread executing under the application.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Record is one dynamic instruction's lifecycle. Cycles are absolute;
// zero-valued stage fields mean the instruction never reached that
// stage.
type Record struct {
	Seq      uint64
	Tid      int
	PC       uint64
	Op       string
	PAL      bool
	HadMiss  bool
	Squashed bool

	FetchAt  uint64
	AvailAt  uint64 // leaves the fetch pipe (decode-ready)
	WindowAt uint64 // enters the instruction window
	IssueAt  uint64 // (last) issue
	DoneAt   uint64 // execution complete
	EndAt    uint64 // retirement, or squash time
}

// Collector keeps the most recent Capacity records in a ring.
type Collector struct {
	Capacity int
	ring     []Record
	next     int
}

// NewCollector returns a collector bounded at capacity records.
func NewCollector(capacity int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{Capacity: capacity, ring: make([]Record, 0, capacity)}
}

// Add records one lifecycle.
func (c *Collector) Add(r Record) {
	if len(c.ring) < c.Capacity {
		c.ring = append(c.ring, r)
		return
	}
	c.ring[c.next] = r
	c.next = (c.next + 1) % c.Capacity
}

// Records returns the retained records in insertion order.
func (c *Collector) Records() []Record {
	out := make([]Record, 0, len(c.ring))
	out = append(out, c.ring[c.next:]...)
	out = append(out, c.ring[:c.next]...)
	return out
}

// Stage glyphs: f = in fetch pipe, d = decode/dispatch wait, w = in
// window waiting, E = executing, . = complete awaiting retirement,
// R = retire, x = squashed.
const maxCols = 160

// Render writes a pipeline diagram of the retained records. Rows are
// clipped to maxCols cycles starting at the earliest fetch in view.
func (c *Collector) Render(w io.Writer) {
	recs := c.Records()
	if len(recs) == 0 {
		fmt.Fprintln(w, "trace: no records")
		return
	}
	base := recs[0].FetchAt
	for _, r := range recs {
		if r.FetchAt < base {
			base = r.FetchAt
		}
	}
	fmt.Fprintf(w, "pipeline trace (%d instructions, cycles %d..)\n", len(recs), base)
	fmt.Fprintf(w, "%-6s %-3s %-10s %-9s %s\n", "seq", "tid", "pc", "op", "f=fetch d=decode w=window E=exec .=done R=retire x=squash")
	for _, r := range recs {
		fmt.Fprintf(w, "%-6d %-3d %-10x %-9s |%s|\n", r.Seq, r.Tid, r.PC, flagged(r), lane(r, base))
	}
}

func flagged(r Record) string {
	op := r.Op
	if r.PAL {
		op += "*"
	}
	if r.HadMiss {
		op += "!"
	}
	return op
}

// lane renders one instruction's row relative to the base cycle.
func lane(r Record, base uint64) string {
	var sb strings.Builder
	pos := uint64(0)
	emit := func(upTo uint64, ch byte) {
		for pos < upTo && pos < maxCols {
			sb.WriteByte(ch)
			pos++
		}
	}
	// rel maps an absolute cycle to a column, clamping instead of
	// wrapping: a zero stage field (never reached) must not underflow
	// into a maxCols-wide row.
	rel := func(at uint64) uint64 {
		if at <= base {
			return 0
		}
		return at - base
	}
	emit(rel(r.FetchAt), ' ')

	end := rel(r.EndAt)
	if r.Squashed {
		// Show progress up to the squash point, then the kill.
		stop := end
		emit(min64(rel(r.AvailAt), stop), 'f')
		if r.WindowAt > 0 {
			emit(min64(rel(r.WindowAt), stop), 'd')
		}
		if r.IssueAt > 0 {
			emit(min64(rel(r.IssueAt), stop), 'w')
		}
		emit(stop, 'w')
		if pos < maxCols {
			sb.WriteByte('x')
		}
		return sb.String()
	}

	emit(rel(r.AvailAt), 'f')
	emit(rel(r.WindowAt), 'd')
	emit(rel(r.IssueAt), 'w')
	emit(rel(r.DoneAt), 'E')
	emit(end, '.')
	if pos < maxCols {
		sb.WriteByte('R')
	}
	return sb.String()
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// sub64 is a saturating subtraction: stage timestamps on malformed or
// partially filled records must not wrap.
func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Summary aggregates stage occupancy over the retained records.
func (c *Collector) Summary(w io.Writer) {
	recs := c.Records()
	var n, squashed, pal, miss int
	var fetchPipe, windowWait, exec, retireWait uint64
	for _, r := range recs {
		n++
		if r.Squashed {
			squashed++
			continue
		}
		if r.PAL {
			pal++
		}
		if r.HadMiss {
			miss++
		}
		fetchPipe += sub64(r.AvailAt, r.FetchAt)
		windowWait += sub64(r.IssueAt, r.WindowAt)
		exec += sub64(r.DoneAt, r.IssueAt)
		retireWait += sub64(r.EndAt, r.DoneAt)
	}
	done := n - squashed
	if done == 0 {
		fmt.Fprintln(w, "trace: no retired records")
		return
	}
	fmt.Fprintf(w, "retired %d (pal %d, missed %d), squashed %d\n", done, pal, miss, squashed)
	fmt.Fprintf(w, "avg cycles: fetch-pipe %.1f, window-wait %.1f, execute %.1f, retire-wait %.1f\n",
		float64(fetchPipe)/float64(done), float64(windowWait)/float64(done),
		float64(exec)/float64(done), float64(retireWait)/float64(done))
}
