package trace

import (
	"strings"
	"testing"
)

func rec(seq, fetch, avail, window, issue, done, end uint64) Record {
	return Record{
		Seq: seq, Op: "add",
		FetchAt: fetch, AvailAt: avail, WindowAt: window,
		IssueAt: issue, DoneAt: done, EndAt: end,
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(3)
	for i := uint64(1); i <= 5; i++ {
		c.Add(rec(i, i, i+1, i+2, i+3, i+4, i+5))
	}
	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, want := range []uint64{3, 4, 5} {
		if recs[i].Seq != want {
			t.Errorf("record %d seq = %d, want %d", i, recs[i].Seq, want)
		}
	}
}

func TestCollectorUnderfill(t *testing.T) {
	c := NewCollector(10)
	c.Add(rec(1, 0, 3, 5, 7, 8, 9))
	recs := c.Records()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestRenderLane(t *testing.T) {
	c := NewCollector(4)
	c.Add(rec(1, 0, 3, 5, 7, 8, 9))
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	// fetch cycles 0-2 (fff), decode-wait 3-4 (dd), window 5-6 (ww),
	// exec 7 (E), done-wait 8 (.), retire at 9 (R).
	if !strings.Contains(out, "|fffddwwE.R|") {
		t.Errorf("lane missing expected pattern:\n%s", out)
	}
}

func TestRenderSquashed(t *testing.T) {
	c := NewCollector(4)
	r := rec(2, 0, 3, 0, 0, 0, 5)
	r.Squashed = true
	c.Add(r)
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "x") {
		t.Errorf("squashed lane lacks kill marker:\n%s", sb.String())
	}
}

func TestRenderFlags(t *testing.T) {
	c := NewCollector(4)
	r := rec(3, 0, 3, 5, 7, 8, 9)
	r.PAL = true
	r.HadMiss = true
	r.Op = "ldq"
	c.Add(r)
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "ldq*!") {
		t.Errorf("flags not rendered:\n%s", sb.String())
	}
}

func TestSummary(t *testing.T) {
	c := NewCollector(8)
	c.Add(rec(1, 0, 3, 5, 7, 8, 9))
	sq := rec(2, 1, 4, 0, 0, 0, 6)
	sq.Squashed = true
	c.Add(sq)
	var sb strings.Builder
	c.Summary(&sb)
	out := sb.String()
	if !strings.Contains(out, "retired 1") || !strings.Contains(out, "squashed 1") {
		t.Errorf("summary wrong:\n%s", out)
	}
}

func TestSummaryAllSquashed(t *testing.T) {
	c := NewCollector(4)
	for i := uint64(1); i <= 3; i++ {
		r := rec(i, i, 0, 0, 0, 0, i+2)
		r.Squashed = true
		c.Add(r)
	}
	var sb strings.Builder
	c.Summary(&sb)
	out := sb.String()
	// Every record squashed: there is no average to report, and the
	// zero divisor must not produce NaNs or a panic.
	if !strings.Contains(out, "no retired records") {
		t.Errorf("all-squashed summary wrong:\n%s", out)
	}
}

// TestLaneSquashedZeroStagesHighBase pins the uint64 underflow guard:
// a squashed record that never left fetch (WindowAt == IssueAt == 0)
// rendered against a nonzero base cycle must not wrap 0-base into a
// huge column and flood the row.
func TestLaneSquashedZeroStagesHighBase(t *testing.T) {
	c := NewCollector(4)
	c.Add(rec(1, 100, 103, 105, 107, 108, 109)) // sets base = 100
	sq := rec(2, 104, 0, 0, 0, 0, 106)
	sq.Squashed = true
	c.Add(sq)
	var sb strings.Builder
	c.Render(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "|") && len(line) > 64 {
			t.Errorf("lane overflow (len %d): %q", len(line), line)
		}
	}
	if !strings.Contains(sb.String(), "x") {
		t.Errorf("squashed record lost its kill marker:\n%s", sb.String())
	}
}

// TestSummaryMalformedRecordSaturates: a retired record with zero
// stage fields must contribute zero, not 2^64-ish garbage.
func TestSummaryMalformedRecordSaturates(t *testing.T) {
	c := NewCollector(4)
	c.Add(rec(1, 5, 0, 0, 0, 0, 9)) // retired but stage fields unset
	var sb strings.Builder
	c.Summary(&sb)
	out := sb.String()
	if strings.Contains(out, "e+") || !strings.Contains(out, "fetch-pipe 0.0") {
		t.Errorf("summary wrapped on malformed record:\n%s", out)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(4)
	var sb strings.Builder
	c.Render(&sb)
	c.Summary(&sb)
	if !strings.Contains(sb.String(), "no records") {
		t.Error("empty collector did not say so")
	}
}
