package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Table X: demo", "name", "exits", "delta")
	tb.AddRow("dedup", "1234", "-50%")
	tb.AddRow("x264", "99", "+7%")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "Table X: demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "exits") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	if !strings.Contains(s, "dedup") || !strings.Contains(s, "-50%") {
		t.Errorf("rows missing:\n%s", s)
	}
	// Columns align: "exits" column starts at the same offset in all rows.
	idx := strings.Index(lines[1], "exits")
	if !strings.HasPrefix(lines[3][idx:], "1234") {
		t.Errorf("column misaligned:\n%s", s)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z")
	s := tb.String()
	if !strings.Contains(s, "only") || !strings.Contains(s, "z") {
		t.Errorf("ragged rows mishandled:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "name", "note")
	tb.AddRow("a", `has "quotes", and comma`)
	csv := tb.CSV()
	want := "name,note\na,\"has \"\"quotes\"\", and comma\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Figure N: relative exits")
	c.Add("dedup", -0.5)
	c.Add("x264", 0.25)
	c.Add("zero", 0)
	s := c.String()
	if !strings.Contains(s, "Figure N") {
		t.Errorf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), s)
	}
	// dedup bar is left of the axis; x264 bar right of the axis.
	dedupLine, x264Line, zeroLine := lines[1], lines[2], lines[3]
	if !strings.Contains(dedupLine, "#|") && !strings.Contains(dedupLine, "# |") {
		if strings.Index(dedupLine, "#") > strings.Index(dedupLine, "|") {
			t.Errorf("negative bar on wrong side: %q", dedupLine)
		}
	}
	if strings.Contains(dedupLine, "|#") {
		t.Errorf("negative bar grew right: %q", dedupLine)
	}
	if !strings.Contains(x264Line, "|#") {
		t.Errorf("positive bar missing right of axis: %q", x264Line)
	}
	if strings.Count(zeroLine, "#") != 0 {
		t.Errorf("zero bar should be empty: %q", zeroLine)
	}
	if !strings.Contains(dedupLine, "-50.0%") || !strings.Contains(x264Line, "+25.0%") {
		t.Errorf("percent labels missing:\n%s", s)
	}
}

func TestBarChartAllZero(t *testing.T) {
	c := NewBarChart("flat")
	c.Add("a", 0)
	s := c.String()
	if strings.Contains(s, "#") {
		t.Errorf("all-zero chart drew bars:\n%s", s)
	}
}

func TestBarChartScales(t *testing.T) {
	c := NewBarChart("scaled")
	c.Add("big", -1.0)
	c.Add("small", -0.5)
	s := c.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	big := strings.Count(lines[1], "#")
	small := strings.Count(lines[2], "#")
	if big != 30 {
		t.Errorf("largest bar should fill half-width 30, got %d", big)
	}
	if small != 15 {
		t.Errorf("half-magnitude bar should be 15, got %d", small)
	}
}

// fmtTableString is the fmt-based formatter Table.String replaced: a cell
// padded by %-*s, then the whole output so far trimmed of trailing spaces
// after every row. The rendering tests compare against its bytes.
func fmtTableString(t *Table) string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		cols = max(cols, len(r))
	}
	widths := make([]int, cols)
	for _, row := range append([][]string{t.Headers}, t.Rows...) {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		s := strings.TrimRight(b.String(), " ")
		b.Reset()
		b.WriteString(s + "\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// fmtBarChartString is the fmt-based chart formatter BarChart.String
// replaced.
func fmtBarChartString(c *BarChart) string {
	const half = 30
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
		labelW = max(labelW, len(l))
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s (full bar = %.0f%%)\n", c.Title, maxAbs*100)
	}
	for i, v := range c.values {
		n := min(int(abs(v)/maxAbs*half+0.5), half)
		left, right := strings.Repeat(" ", half), strings.Repeat(" ", half)
		if v < 0 {
			left = strings.Repeat(" ", half-n) + strings.Repeat("#", n)
		} else if v > 0 {
			right = strings.Repeat("#", n) + strings.Repeat(" ", half-n)
		}
		pct := "n/a"
		if !math.IsNaN(v) {
			pct = fmt.Sprintf("%+.1f%%", v*100)
		}
		line := fmt.Sprintf("%-*s %s|%s %s", labelW, c.labels[i], left, right, pct)
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// TestTableStringMatchesFmt pins Table.String to the fmt formatter's bytes
// where the two could part: a non-ASCII cell (fmt pads to a width in
// runes, the widths count bytes), short rows, an all-empty row, an
// all-empty last column, and a table without a title or rows.
func TestTableStringMatchesFmt(t *testing.T) {
	exits := NewTable("Table 7: latency", "class", "p50", "unit", "note")
	exits.AddRow("timer", "1.5", "µs")
	exits.AddRow("ipi", "12", "ms", "")
	exits.AddRow()
	exits.AddRow("", "", "", "")
	exits.AddRow("µµµµ", "x")
	exits.AddRow("wide cell  ", "trailing ", "µ", "  ")
	blankLast := NewTable("", "a", "")
	blankLast.AddRow("x", "")
	blankLast.AddRow("yy")
	for _, tb := range []*Table{exits, blankLast, NewTable(""), NewTable("only title"), NewTable("", "h")} {
		if got, want := tb.String(), fmtTableString(tb); got != want {
			t.Errorf("table %q renders\n%q\nwant\n%q", tb.Title, got, want)
		}
	}
}

// TestBarChartStringMatchesFmt pins BarChart.String, and the Pct1 digits
// it shares, to the fmt formatter's bytes: bars of both signs, a zero and
// an undefined (NaN) value, values that round to a signed zero, infinities,
// and a non-ASCII label.
func TestBarChartStringMatchesFmt(t *testing.T) {
	c := NewBarChart("Figure 9: µs saved")
	for i, v := range []float64{-0.5, 0.25, 0, math.NaN(), -0.0004, 0.0004, math.Copysign(0, -1), 1e-9, -1.2345, 0.99951} {
		c.Add(fmt.Sprintf("bench-%d-µ", i), v)
	}
	untitled := NewBarChart("")
	untitled.Add("x", 0.1)
	for _, ch := range []*BarChart{c, untitled, NewBarChart("empty")} {
		if got, want := ch.String(), fmtBarChartString(ch); got != want {
			t.Errorf("chart %q renders\n%q\nwant\n%q", ch.Title, got, want)
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), -0.0004, 12.3456, -1e-300} {
		want := "n/a"
		if !math.IsNaN(v) {
			want = fmt.Sprintf("%+.1f%%", v*100)
		}
		if got := Pct1(v); got != want {
			t.Errorf("Pct1(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestTableStringAllocs pins that rendering allocates per table, not per
// line or cell: a 100-row table takes its widths, its output buffer and
// the returned string.
func TestTableStringAllocs(t *testing.T) {
	tb := NewTable("Table: allocs", "name", "exits", "delta")
	for i := 0; i < 100; i++ {
		tb.AddRow(fmt.Sprintf("row%d", i), fmt.Sprint(i*37), "-1.5%")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = tb.String() }); allocs > 3 {
		t.Fatalf("rendering a 100-row table took %v allocations, want at most 3", allocs)
	}
}
