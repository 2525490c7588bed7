// Command perfbench is solarpred's benchmark: four workloads run against
// the real solarpredd and repro binaries and the public packages, each
// printing its end-to-end metrics (or, traced, its per-layer breakdown)
// as one JSON line and checking every output it measures.
//
//	perfbench -workload forecast-hot -seed 1 -seconds 12 -trace 0 -bin DIR -out DIR
//
// run.sh builds the binaries from source and calls this with -bin and
// -out set. See README.md for what each workload exercises.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	binDir  string
	outDir  string
	nproc   int
}

// report is a workload's raw result before printing.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	mismatch  []string // output checks that failed, for stderr
	spans     []span
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// fail records a failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatch) < 20 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*report, error){
	"forecast-hot":   forecastHot,
	"forecast-churn": forecastChurn,
	"fleet-20k":      fleet20k,
	"repro-full":     reproFull,
}

func main() {
	var (
		name    = flag.String("workload", "", "forecast-hot, forecast-churn, fleet-20k or repro-full")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 12, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
		binDir  = flag.String("bin", "", "directory holding the solarpredd and repro binaries")
		outDir  = flag.String("out", "", "directory for spans and knee-curve artifacts")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *binDir == "" || *outDir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (forecast-hot, forecast-churn, fleet-20k, repro-full), -seconds ≥ 1, -trace 0|1, -bin and -out")
		os.Exit(2)
	}
	go killChildrenOnSignal()
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		binDir:  *binDir,
		outDir:  *outDir,
		nproc:   runtime.NumCPU(),
	}
	rep, err := wl(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if e.trace {
		path := filepath.Join(e.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, e.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rep.spans), path)
	}
	for _, m := range rep.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	line, err := render(rep, e.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line: every end-to-end metric untraced, every
// per-layer metric traced. A per-layer metric of a layer the workload
// does not reach reads 0.
func render(rep *report, traced bool) (string, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range rep.metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics %v are not declared", extra)
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, out})
	return string(b), err
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfPeakRSSMiB reads this process's VmHWM.
func selfPeakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// children tracks spawned processes, with the channel closed once each
// is reaped, so a signal to the benchmark takes them down too.
var children struct {
	sync.Mutex
	procs map[*os.Process]chan struct{}
}

// trackChild registers a started process; done closes when it is reaped.
func trackChild(p *os.Process, done chan struct{}) {
	children.Lock()
	defer children.Unlock()
	if children.procs == nil {
		children.procs = make(map[*os.Process]chan struct{})
	}
	children.procs[p] = done
}

func untrackChild(p *os.Process) {
	children.Lock()
	defer children.Unlock()
	delete(children.procs, p)
}

func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	<-ch
	children.Lock()
	for p, done := range children.procs {
		_ = p.Kill()
		<-done
	}
	os.Exit(1)
}

// timeIt runs f and returns how long it took.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
