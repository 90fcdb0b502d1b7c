// Package harness regenerates every table and figure of the paper's
// evaluation (Section 3 and Section 5): the pipeline-depth and
// machine-width trends (Figures 2-3), the mechanism comparison
// (Figure 5), the limit studies (Table 3), quick-start (Figure 6),
// the multiprogrammed SMT mixes (Figure 7) and the speedup summary
// (Table 4). Each experiment returns a Table whose rows/series match
// what the paper plots; EXPERIMENTS.md records paper-vs-measured.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a labelled numeric grid with a text rendering, the common
// currency of all experiment runners.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  []string
	Cells [][]float64
	// Format is the printf verb for cells, default %10.2f.
	Format string
	// failed marks cells whose simulation died (panic, livelock,
	// timeout); they render as FAIL in every output format. Allocated
	// lazily by MarkFailed, so tables without failures pay nothing.
	failed [][]bool
}

// NewTable allocates a rows x cols table.
func NewTable(title string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{Title: title, Cols: cols, Rows: rows, Cells: cells, Format: "%10.2f"}
}

// Set stores a cell by row/column index.
func (t *Table) Set(r, c int, v float64) { t.Cells[r][c] = v }

// Get reads a cell.
func (t *Table) Get(r, c int) float64 { return t.Cells[r][c] }

// Col returns the column index for a name, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Row returns the row index for a name, or -1.
func (t *Table) Row(name string) int {
	for i, r := range t.Rows {
		if r == name {
			return i
		}
	}
	return -1
}

// Cell reads a cell by names; it panics on unknown names (harness
// internal misuse).
func (t *Table) Cell(row, col string) float64 {
	r, c := t.Row(row), t.Col(col)
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("harness: no cell (%q, %q) in table %q", row, col, t.Title))
	}
	return t.Cells[r][c]
}

// MarkFailed flags a cell as failed; it renders as FAIL everywhere.
func (t *Table) MarkFailed(r, c int) {
	if r < 0 || c < 0 || r >= len(t.Rows) || c >= len(t.Cols) {
		return
	}
	if t.failed == nil {
		t.failed = make([][]bool, 0, len(t.Rows))
	}
	for len(t.failed) < len(t.Rows) {
		t.failed = append(t.failed, make([]bool, len(t.Cols)))
	}
	if len(t.failed[r]) < len(t.Cols) {
		row := make([]bool, len(t.Cols))
		copy(row, t.failed[r])
		t.failed[r] = row
	}
	t.failed[r][c] = true
}

// FailedAt reports whether a cell was marked failed.
func (t *Table) FailedAt(r, c int) bool {
	return t.failed != nil && r < len(t.failed) && c < len(t.failed[r]) && t.failed[r][c]
}

// AddAverageRow appends a row holding the per-column arithmetic mean,
// as the paper's figures do. A column with any failed contributor has
// no meaningful mean: its average cell is marked failed too.
func (t *Table) AddAverageRow() {
	avg := make([]float64, len(t.Cols))
	poisoned := make([]bool, len(t.Cols))
	for c := range t.Cols {
		for r := range t.Rows {
			avg[c] += t.Cells[r][c]
			if t.FailedAt(r, c) {
				poisoned[c] = true
			}
		}
		avg[c] /= float64(len(t.Rows))
	}
	t.Rows = append(t.Rows, "average")
	t.Cells = append(t.Cells, avg)
	for c, p := range poisoned {
		if p {
			t.MarkFailed(len(t.Rows)-1, c)
		}
	}
}

// CSV renders the table as comma-separated values with a header row,
// suitable for plotting the figures the paper drew.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("name")
	for _, c := range t.Cols {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for r, name := range t.Rows {
		sb.WriteString(name)
		for c := range t.Cols {
			if t.FailedAt(r, c) {
				sb.WriteString(",FAIL")
			} else {
				fmt.Fprintf(&sb, ",%g", t.Cells[r][c])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteJSONRows emits the table as newline-delimited JSON, one object
// per row, so experiment output can be concatenated across tables and
// consumed by external analysis without parsing the text rendering:
//
//	{"table":"Figure 5","row":"compress","cells":{"traditional":120.3,...}}
//
// JSON has no infinities or NaN. Such a cell (a sampled CI is +Inf
// below two windows) is left out of "cells" and listed under
// "nonfinite" by column, with its value as strconv prints it ("+Inf"),
// the way "failed" lists FAIL cells.
func (t *Table) WriteJSONRows(w io.Writer) error {
	enc := json.NewEncoder(w)
	for r, name := range t.Rows {
		cells := make(map[string]float64, len(t.Cols))
		var failed []string
		var nonFinite map[string]string
		for c, col := range t.Cols {
			v := t.Cells[r][c]
			switch {
			case t.FailedAt(r, c):
				failed = append(failed, col)
			case math.IsInf(v, 0) || math.IsNaN(v):
				if nonFinite == nil {
					nonFinite = make(map[string]string)
				}
				nonFinite[col] = strconv.FormatFloat(v, 'g', -1, 64)
			default:
				cells[col] = v
			}
		}
		row := struct {
			Table     string             `json:"table"`
			Note      string             `json:"note,omitempty"`
			Row       string             `json:"row"`
			Cells     map[string]float64 `json:"cells"`
			Failed    []string           `json:"failed,omitempty"`
			NonFinite map[string]string  `json:"nonfinite,omitempty"`
		}{Table: t.Title, Note: t.Note, Row: name, Cells: cells, Failed: failed, NonFinite: nonFinite}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "  (%s)\n", t.Note)
	}
	fmt.Fprintf(&sb, "%-14s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%12s", c)
	}
	sb.WriteByte('\n')
	format := t.Format
	if format == "" {
		format = "%10.2f"
	}
	width := formatWidth(format)
	for r, name := range t.Rows {
		fmt.Fprintf(&sb, "%-14s", name)
		for c := range t.Cols {
			if t.FailedAt(r, c) {
				fmt.Fprintf(&sb, "  %*s", width, "FAIL")
			} else {
				fmt.Fprintf(&sb, "  "+format, t.Cells[r][c])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// formatWidth extracts the field width of a printf verb like %10.2f,
// so FAIL markers align with the numeric cells around them.
func formatWidth(format string) int {
	i := strings.IndexByte(format, '%')
	if i < 0 {
		return 10
	}
	w := 0
	for _, ch := range format[i+1:] {
		if ch < '0' || ch > '9' {
			break
		}
		w = w*10 + int(ch-'0')
	}
	if w == 0 {
		return 10
	}
	return w
}
