package metrics

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// Table is a simple aligned text/CSV table used to render the paper's
// tables and per-benchmark figure series.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns. Each line is rendered
// straight into the output buffer and only its own trailing padding is
// trimmed, so rendering is linear in the table's size and allocates per
// table, not per line or cell.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	line := 2*cols + 1
	for _, w := range widths {
		line += w
	}
	out := make([]byte, 0, len(t.Title)+1+line*(len(t.Rows)+2))
	if t.Title != "" {
		out = append(out, t.Title...)
		out = append(out, '\n')
	}
	writeRow := func(row []string) {
		start := len(out)
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				out = append(out, "  "...)
			}
			out = appendPadded(out, cell, widths[i])
		}
		out = endLine(out, start)
	}
	writeRow(t.Headers)
	start := len(out)
	for i, w := range widths {
		if i > 0 {
			out = append(out, "  "...)
		}
		out = appendRepeat(out, '-', w)
	}
	out = endLine(out, start)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return string(out)
}

// appendPadded appends s left-aligned in a field of width, as fmt's %-*s
// does: the field is padded to width runes, so a multi-byte cell, whose
// width was measured in bytes, gets less padding than its byte length
// suggests.
func appendPadded(out []byte, s string, width int) []byte {
	out = append(out, s...)
	return appendRepeat(out, ' ', width-utf8.RuneCountInString(s))
}

// appendRepeat appends n copies of c (none when n <= 0).
func appendRepeat(out []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		out = append(out, c)
	}
	return out
}

// endLine trims the trailing spaces of the line that began at start and
// ends it.
func endLine(out []byte, start int) []byte {
	for len(out) > start && out[len(out)-1] == ' ' {
		out = out[:len(out)-1]
	}
	return append(out, '\n')
}

// CSV renders the table as RFC-4180-ish CSV (quotes around cells containing
// commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// BarChart renders a horizontal ASCII bar chart for a series of signed
// percentages, used to present the paper's figures (relative performance of
// paratick vs vanilla) in the terminal.
type BarChart struct {
	Title  string
	labels []string
	values []float64 // fractions, e.g. -0.5 for -50%
}

// NewBarChart creates an empty chart.
func NewBarChart(title string) *BarChart { return &BarChart{Title: title} }

// Add appends one labeled bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart. Negative values grow left from a center axis,
// positive values grow right; scale adapts to the largest magnitude.
func (c *BarChart) String() string {
	const half = 30 // columns per side
	maxAbs := 0.0
	for _, v := range c.values {
		if a := abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	labelW := 0
	for _, l := range c.labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var out []byte
	if c.Title != "" {
		out = fmt.Appendf(out, "%s (full bar = %.0f%%)\n", c.Title, maxAbs*100)
	}
	out = slices.Grow(out, len(c.values)*(labelW+2*half+12))
	for i, v := range c.values {
		n := int(abs(v)/maxAbs*half + 0.5)
		if n > half {
			n = half
		}
		left, right := 0, 0 // bar columns on each side of the axis
		if v < 0 {
			left = n
		} else if v > 0 {
			right = n
		}
		start := len(out)
		out = appendPadded(out, c.labels[i], labelW)
		out = append(out, ' ')
		out = appendRepeat(out, ' ', half-left)
		out = appendRepeat(out, '#', left)
		out = append(out, '|')
		out = appendRepeat(out, '#', right)
		out = appendRepeat(out, ' ', half-right)
		out = append(out, ' ')
		out = appendPct1(out, v)
		out = endLine(out, start)
	}
	return string(out)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
