package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"solarpred/internal/dataset"
	"solarpred/internal/expstore"
	"solarpred/internal/timeseries"
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

// TestRunFailingDriver makes every trace of the first site fail and
// checks that run returns that error as the Fig. 2 section's, the first
// section in print order that needs the trace, and that it returns only
// after every driver it started has finished. The second site's trace is
// held until the first failure and only then generated, so when Fig. 2's
// error is known a driver is still computing; a run that returned
// without waiting for its drivers would leave that trace unfinished.
func TestRunFailingDriver(t *testing.T) {
	// The store runs at most GOMAXPROCS flights at once; the failing trace
	// waits for the held one to start, so both need a slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	errDown := errors.New("trace generator down")
	cfg := newConfig(true, 0)
	failSite, heldSite := cfg.Sites[0], cfg.Sites[1]
	heldStarted, failed := make(chan struct{}), make(chan struct{})
	var startOnce, failOnce sync.Once
	var heldDone atomic.Bool
	cfg.Store = expstore.New(func(site string, days int) (*timeseries.Series, error) {
		switch site {
		case failSite:
			<-heldStarted
			failOnce.Do(func() { close(failed) })
			return nil, errDown
		case heldSite:
			startOnce.Do(func() { close(heldStarted) })
			<-failed
			defer heldDone.Store(true)
		}
		st, err := dataset.SiteByName(site)
		if err != nil {
			return nil, err
		}
		return dataset.GenerateDays(st, days)
	}, cfg.Ns)

	var buf bytes.Buffer
	err := run(&buf, cfg, true)
	if !errors.Is(err, errDown) {
		t.Fatalf("run returned %v, want the failing trace's error", err)
	}
	if !heldDone.Load() {
		t.Error("run returned while a driver was still generating a trace")
	}
	if fs := cfg.Store.Flights(); fs.InFlight != 0 {
		t.Errorf("run returned with %d store flights still running", fs.InFlight)
	}
	const fig2 = "==== Fig. 2: six days of solar energy (SPMD-like trace) ====\n\n"
	if out := buf.String(); !strings.HasSuffix(out, fig2) || !strings.Contains(out, "==== Table I: data sets ====") {
		t.Errorf("output does not stop at the Fig. 2 header:\n%s", out)
	}
}
