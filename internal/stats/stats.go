// Package stats holds the small numeric and presentation helpers used by
// the experiment drivers: geometric means, normalised tables and the
// ASCII rendering that mirrors the paper's figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of positive values; zero or negative
// entries are skipped (they would otherwise poison the product).
func Geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Table is a named grid of float cells: rows are benchmarks, columns are
// configurations or metrics.
type Table struct {
	Title string
	Note  string
	Rows  []string
	Cols  []string
	Cells [][]float64 // [row][col]
}

// NewTable allocates a zeroed table.
func NewTable(title string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{
		Title: title,
		Rows:  append([]string(nil), rows...),
		Cols:  append([]string(nil), cols...),
		Cells: cells,
	}
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// RowIndex returns the index of the named row, or -1.
func (t *Table) RowIndex(name string) int {
	for i, r := range t.Rows {
		if r == name {
			return i
		}
	}
	return -1
}

// Set stores a cell by names, panicking on unknown names (programming
// error in an experiment driver).
func (t *Table) Set(row, col string, v float64) {
	ri, ci := t.RowIndex(row), t.ColIndex(col)
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("stats: unknown cell (%q, %q) in table %q", row, col, t.Title))
	}
	t.Cells[ri][ci] = v
}

// Get reads a cell by names.
func (t *Table) Get(row, col string) float64 {
	ri, ci := t.RowIndex(row), t.ColIndex(col)
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("stats: unknown cell (%q, %q) in table %q", row, col, t.Title))
	}
	return t.Cells[ri][ci]
}

// Normalized returns a new table with every row divided by that row's
// value in the base column (the paper normalises everything to BC = 100%).
func (t *Table) Normalized(baseCol string) *Table {
	bi := t.ColIndex(baseCol)
	if bi < 0 {
		panic(fmt.Sprintf("stats: unknown base column %q", baseCol))
	}
	out := NewTable(t.Title+" (normalized to "+baseCol+")", t.Rows, t.Cols)
	out.Note = t.Note
	for r := range t.Rows {
		base := t.Cells[r][bi]
		for c := range t.Cols {
			if base != 0 {
				out.Cells[r][c] = t.Cells[r][c] / base
			}
		}
	}
	return out
}

// Diff returns a table of cell-wise differences t - other over the rows
// and columns the two tables share, in the receiver's order. Rows or
// columns present in only one table are dropped, so tables built from
// different benchmark subsets or metric sets still diff cleanly.
func (t *Table) Diff(other *Table) *Table {
	var rows, cols []string
	for _, r := range t.Rows {
		if other.RowIndex(r) >= 0 {
			rows = append(rows, r)
		}
	}
	for _, c := range t.Cols {
		if other.ColIndex(c) >= 0 {
			cols = append(cols, c)
		}
	}
	out := NewTable(t.Title+" - "+other.Title, rows, cols)
	for _, r := range rows {
		for _, c := range cols {
			out.Set(r, c, t.Get(r, c)-other.Get(r, c))
		}
	}
	return out
}

// WithGeomeanRow returns a copy with an extra "geomean" row.
func (t *Table) WithGeomeanRow() *Table {
	out := NewTable(t.Title, append(append([]string(nil), t.Rows...), "geomean"), t.Cols)
	out.Note = t.Note
	copy(out.Cells, t.Cells)
	for c := range t.Cols {
		col := make([]float64, len(t.Rows))
		for r := range t.Rows {
			out.Cells[r][c] = t.Cells[r][c]
			col[r] = t.Cells[r][c]
		}
		out.Cells[len(t.Rows)][c] = Geomean(col)
	}
	return out
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "  (%s)\n", t.Note)
	}
	rowW := len("benchmark")
	for _, r := range t.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := 9
	for _, c := range t.Cols {
		if len(c)+1 > colW {
			colW = len(c) + 1
		}
	}
	fmt.Fprintf(&sb, "%-*s", rowW+2, "benchmark")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%*s", colW, c)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", rowW+2+colW*len(t.Cols)))
	for r, name := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", rowW+2, name)
		for c := range t.Cols {
			fmt.Fprintf(&sb, "%*.3f", colW, t.Cells[r][c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark")
	for _, c := range t.Cols {
		sb.WriteString(",")
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for r, name := range t.Rows {
		sb.WriteString(name)
		for c := range t.Cols {
			fmt.Fprintf(&sb, ",%.6g", t.Cells[r][c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
