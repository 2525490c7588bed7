package report

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tbl := NewTable("Demo", "Site", "MAPE")
	tbl.AddRow("SPMD", "15.80%")
	tbl.AddRow("NPCS", "8.06%")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Site") || !strings.Contains(lines[1], "MAPE") {
		t.Errorf("header line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule line %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "SPMD") {
		t.Errorf("row line %q", lines[3])
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("trailing space on %q", l)
		}
	}
}

func TestTableColumnsAlign(t *testing.T) {
	tbl := NewTable("", "A", "B")
	tbl.AddRow("xxxx", "1")
	tbl.AddRow("y", "2")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Column B must start at the same offset in both data rows.
	i1 := strings.Index(lines[2], "1")
	i2 := strings.Index(lines[3], "2")
	if i1 != i2 {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.158) != "15.80%" {
		t.Errorf("Percent = %q", Percent(0.158))
	}
	if Percent(0) != "0.00%" {
		t.Errorf("Percent(0) = %q", Percent(0))
	}
}

func TestChartBasics(t *testing.T) {
	c := NewChart("MAPE vs D", 20, 6)
	c.Add("SPMD", '*', []float64{0.2, 0.15, 0.12, 0.11, 0.105, 0.1})
	out := c.String()
	if !strings.Contains(out, "MAPE vs D") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("missing marker")
	}
	if !strings.Contains(out, "* = SPMD") {
		t.Error("missing legend")
	}
	// Max label on first plotted line, min on last.
	if !strings.Contains(out, "0.2") || !strings.Contains(out, "0.1") {
		t.Errorf("missing y labels:\n%s", out)
	}
}

func TestChartEmptyAndFlat(t *testing.T) {
	c := NewChart("empty", 10, 4)
	if !strings.Contains(c.String(), "(no data)") {
		t.Error("empty chart should say so")
	}
	c2 := NewChart("flat", 10, 4)
	c2.Add("s", 'x', []float64{5, 5, 5})
	out := c2.String()
	if !strings.Contains(out, "x") {
		t.Errorf("flat series should still draw:\n%s", out)
	}
}

func TestChartMultipleSeries(t *testing.T) {
	c := NewChart("two", 16, 5)
	c.Add("up", 'u', []float64{0, 1, 2, 3})
	c.Add("down", 'd', []float64{3, 2, 1, 0})
	out := c.String()
	if !strings.Contains(out, "u = up") || !strings.Contains(out, "d = down") {
		t.Error("legend incomplete")
	}
	if !strings.Contains(out, "u") || !strings.Contains(out, "d") {
		t.Error("markers missing")
	}
}

func TestChartMonotoneSeriesTopLeftToBottomRight(t *testing.T) {
	c := NewChart("", 10, 5)
	c.Add("dec", '#', []float64{10, 8, 6, 4, 2})
	lines := strings.Split(c.String(), "\n")
	// First plot row should contain a marker near the left; the last plot
	// row near the right.
	first := lines[0]
	last := lines[4]
	if strings.Index(first, "#") > strings.Index(last, "#") {
		t.Errorf("decreasing series drawn increasing:\n%s", c.String())
	}
}

func TestChartMinimumDimensions(t *testing.T) {
	c := NewChart("tiny", 1, 1)
	c.Add("s", '*', []float64{1, 2})
	if c.Width < 8 || c.Height < 4 {
		t.Error("minimum dimensions not enforced")
	}
	_ = c.String() // must not panic
}

func TestBars(t *testing.T) {
	out := Bars("Overhead", []string{"288", "96"}, []float64{4.85, 1.62}, "%", 20)
	if !strings.Contains(out, "Overhead") || !strings.Contains(out, "4.85%") || !strings.Contains(out, "1.62%") {
		t.Errorf("bars:\n%s", out)
	}
	// The larger value must have the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Errorf("bar lengths not ordered:\n%s", out)
	}
	if !strings.Contains(Bars("x", []string{"a"}, nil, "", 10), "(no data)") {
		t.Error("mismatched bars should say no data")
	}
	if !strings.Contains(Bars("z", []string{"a"}, []float64{0}, "", 10), "0.00") {
		t.Error("zero bars should render")
	}
}
