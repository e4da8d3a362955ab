package psql

import (
	"strings"

	"repro/internal/relation"
)

// Result is the alphanumeric output of a query plus the loc pointers
// of the qualifying rows — the paper routes the former to the standard
// terminal and uses the latter to drive the graphical output device.
type Result struct {
	Columns []string
	Rows    [][]Datum
	// Locs are the pictorial pointers appearing in the projected rows,
	// in row order: the objects the display should highlight.
	Locs []relation.LocRef
	// NodesVisited counts R-tree nodes touched answering the query —
	// the paper's search-cost measure A, per query.
	NodesVisited int
	// Plan lists the access-path decisions the executor made (direct
	// spatial search, juxtaposition, index lookup, or scan) and the
	// estimates each was chosen by, outermost query first. A step is a
	// value; its String renders the line a reader sees.
	Plan Plan
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Format renders the result as an aligned text table, the "standard
// terminal" output of the paper's Figure 2.1a.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return "(no columns)\n"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, d := range row {
			s := d.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		var line strings.Builder
		for i, v := range vals {
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(v)
			line.WriteString(strings.Repeat(" ", widths[i]-len(v)))
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
