// Package report renders experiment results as fixed-width text tables,
// ASCII charts and bar charts, so that every table and figure of the
// paper can be regenerated by cmd/repro as something directly comparable
// on a terminal (see README's "Artefact map").
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; the cell count should match the header count
// (short rows are padded, long rows extend the width computation).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// columnWidths returns the display width of each column.
func (t *Table) columnWidths() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table with a title line, a header row, a rule, and
// the data rows.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	w := t.columnWidths()
	writeRow := func(cells []string) {
		var line strings.Builder
		for i := 0; i < len(w); i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", w[i], cell)
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for i, x := range w {
		total += x
		if i > 0 {
			total += 2
		}
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Percent formats a fraction as a percentage with two decimals ("15.80%").
func Percent(frac float64) string { return fmt.Sprintf("%.2f%%", frac*100) }

// Chart is a minimal ASCII line/scatter chart for figure regeneration.
type Chart struct {
	Title  string
	YLabel string
	XLabel string
	Width  int // plot area columns
	Height int // plot area rows
	series []chartSeries
}

type chartSeries struct {
	name   string
	marker byte
	ys     []float64
}

// NewChart creates a chart with the given plot-area size.
func NewChart(title string, width, height int) *Chart {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	return &Chart{Title: title, Width: width, Height: height}
}

// Add appends a named series with a one-byte marker. Series are drawn in
// insertion order; later series overwrite earlier ones on collisions.
func (c *Chart) Add(name string, marker byte, ys []float64) {
	c.series = append(c.series, chartSeries{name: name, marker: marker, ys: ys})
}

// String renders the chart. All series share the y-scale; x indices are
// resampled onto the plot width.
func (c *Chart) String() string {
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	lo, hi, any := c.yRange()
	if !any {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, c.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", c.Width))
	}
	for _, s := range c.series {
		n := len(s.ys)
		if n == 0 {
			continue
		}
		for col := 0; col < c.Width; col++ {
			// Nearest-sample resample onto the plot width.
			idx := col * (n - 1) / max(1, c.Width-1)
			y := s.ys[idx]
			row := int((hi - y) / (hi - lo) * float64(c.Height-1))
			if row < 0 {
				row = 0
			}
			if row >= c.Height {
				row = c.Height - 1
			}
			grid[row][col] = s.marker
		}
	}
	yTop := fmt.Sprintf("%.4g", hi)
	yBot := fmt.Sprintf("%.4g", lo)
	labelW := len(yTop)
	if len(yBot) > labelW {
		labelW = len(yBot)
	}
	for r := 0; r < c.Height; r++ {
		label := strings.Repeat(" ", labelW)
		if r == 0 {
			label = fmt.Sprintf("%*s", labelW, yTop)
		}
		if r == c.Height-1 {
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", labelW))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", c.Width))
	b.WriteByte('\n')
	if c.XLabel != "" {
		b.WriteString(strings.Repeat(" ", labelW+2))
		b.WriteString(c.XLabel)
		b.WriteByte('\n')
	}
	for _, s := range c.series {
		fmt.Fprintf(&b, "  %c = %s\n", s.marker, s.name)
	}
	return b.String()
}

func (c *Chart) yRange() (lo, hi float64, any bool) {
	for _, s := range c.series {
		for _, y := range s.ys {
			if !any {
				lo, hi, any = y, y, true
				continue
			}
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	return lo, hi, any
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Bars renders a labelled horizontal bar chart (used for Fig. 6, the
// overhead percentages at each N).
func Bars(title string, labels []string, values []float64, unit string, width int) string {
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	if len(labels) != len(values) || len(values) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if width < 10 {
		width = 10
	}
	maxV := values[0]
	for _, v := range values[1:] {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, v := range values {
		n := int(v / maxV * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s | %s %.2f%s\n", labelW, labels[i], strings.Repeat("#", n), v, unit)
	}
	return b.String()
}
