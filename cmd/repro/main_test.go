package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/golden/quick.txt:
//
//	go test ./cmd/repro -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden fixture under testdata/golden")

// timingLine matches the "(N.Ns)" line that closes each section; it is
// the only part of the output that varies between runs.
var timingLine = regexp.MustCompile(`(?m)^\([0-9.]+s\)\n`)

// TestQuickGolden pins the whole quick-scale stdout, timing lines
// removed, byte for byte.
func TestQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, newConfig(true, 3), true); err != nil {
		t.Fatal(err)
	}
	got := timingLine.ReplaceAll(buf.Bytes(), nil)
	path := filepath.Join("testdata", "golden", "quick.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
}
