package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestPickModel(t *testing.T) {
	m, err := pickModel("soft-float")
	if err != nil || m.Name != "soft-float" {
		t.Errorf("soft-float: %v %v", m.Name, err)
	}
	m, err = pickModel("fixed-q16")
	if err != nil || m.Name != "fixed-q16" {
		t.Errorf("fixed-q16: %v %v", m.Name, err)
	}
	if _, err := pickModel("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestRunSections checks the Fig. 5 output: the timeline header, eight
// timeline events and the full-day totals line.
func TestRunSections(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fixed-q16", 24); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 5 state machine, N=24, fixed-q16 model",
		"deep-sleep", "vref-settle", "adc-convert", "predict",
		"full-day totals: sleep ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, " J\n"); got != 8 {
		t.Errorf("%d timeline events, want 8:\n%s", got, out)
	}
	if err := run(&buf, "nope", 48); err == nil {
		t.Error("unknown model accepted by run")
	}
	if err := run(&buf, "soft-float", 0); err == nil {
		t.Error("N=0 accepted by run")
	}
}
