package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the send offsets of a Poisson process at rate
// requests per second over dur: exponential gaps drawn from rng, so one
// seed always gives one schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * 1e9)
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// outcome is one sent operation, timed from the phase start.
type outcome struct {
	due, sent, done time.Duration
	err             error
}

func (o outcome) latencyMs() float64 { return float64(o.done-o.due) / 1e6 }
func (o outcome) lagMs() float64     { return float64(o.sent-o.due) / 1e6 }

// openLoop sends operation i at its due offset from the phase start,
// whether or not earlier operations have answered, on a fixed set of
// workers goroutines (one per connection the caller allows). A worker
// that is late sends at once; the lateness is the generator lag, and
// latency is taken from the due time, so a stall is charged to every
// operation it delays. Once the lag passes maxLag the phase is abandoned
// and the unsent operations are dropped; aborted reports that.
func openLoop(due []time.Duration, workers int, maxLag time.Duration, send func(i int) error) (outs []outcome, aborted bool) {
	// A worker blocked in nanosleep keeps its P until sysmon retakes it,
	// which can take milliseconds; spare Ps let the HTTP transport's
	// goroutines run meanwhile.
	if procs := 2*workers + 2; runtime.GOMAXPROCS(0) < procs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	outs = make([]outcome, len(due))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// time.Sleep rounds sub-millisecond waits up to a millisecond
			// on Linux; a thread-bound nanosleep with 1 µs timer slack
			// keeps the generator's own lag in the tens of microseconds.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sleepUntil(start.Add(due[i]))
				sent := time.Since(start)
				if sent-due[i] > maxLag {
					stop.Store(true)
					return
				}
				err := send(i)
				outs[i] = outcome{due: due[i], sent: sent, done: time.Since(start), err: err}
			}
		}()
	}
	wg.Wait()
	sent := outs[:0]
	for _, o := range outs {
		if o.done != 0 {
			sent = append(sent, o)
		}
	}
	return sent, stop.Load()
}

// closedLoop sends operations 0, 1, 2, … back to back from workers
// goroutines, each sending its next operation as soon as its last one
// answered, until dur has passed or ops run out. It measures capacity:
// the host never idles between requests, so the count depends on how fast
// the program works, not on how fast an idle CPU wakes. Each outcome is
// timed from its own send.
func closedLoop(ops, workers int, dur time.Duration, send func(i int) error) (outs []outcome, elapsed time.Duration) {
	outs = make([]outcome, ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				sent := time.Since(start)
				if i >= ops || sent >= dur {
					return
				}
				err := send(i)
				outs[i] = outcome{due: sent, sent: sent, done: time.Since(start), err: err}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	done := outs[:0]
	for _, o := range outs {
		if o.done != 0 {
			done = append(done, o)
		}
	}
	return done, elapsed
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// phase summarises one open-loop phase at one offered rate; it is also
// the knee-curve artifact written per ladder rung.
type phase struct {
	OfferedRPS float64 `json:"offered_rps"`
	Scheduled  int     `json:"scheduled"`
	Sent       int     `json:"sent"`
	Failed     int     `json:"failed"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	LagP99Ms   float64 `json:"lag_p99_ms"`
	EndLagMs   float64 `json:"end_lag_ms"`
	LagGrowing bool    `json:"lag_growing"`
	Aborted    bool    `json:"aborted"`
	LimitMs    float64 `json:"p90_limit_ms"`
	Meets      bool    `json:"meets_limit"`
}

// summarise computes a phase's percentiles (from due time), failures and
// lag. The latency limit applies to the p90: a few-millisecond stall of a
// shared host delays about 1% of a short phase's requests, which moves
// the p99 but not the p90, so the p90 finds the saturation knee rather
// than the host's stalls. The lag counts as growing when the operations
// due in the last tenth of the phase were sent, on average, later than
// the latency limit — the generator had fallen behind for good — or the
// phase was abandoned. A failed operation counts as missing the limit in
// the percentiles; a phase with failed or unsent operations does not meet
// it.
func summarise(rate float64, scheduled int, outs []outcome, aborted bool, limitMs float64) phase {
	p := phase{OfferedRPS: rate, Scheduled: scheduled, Sent: len(outs), Aborted: aborted, LimitMs: limitMs}
	lat := make([]float64, 0, len(outs))
	lag := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			p.Failed++
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, o.latencyMs())
		}
		lag = append(lag, o.lagMs())
	}
	if len(lat) == 0 {
		p.P50Ms, p.P90Ms, p.P99Ms, p.P999Ms = math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	} else {
		p.P50Ms, p.P90Ms = percentile(lat, 50), percentile(lat, 90)
		p.P99Ms, p.P999Ms = percentile(lat, 99), percentile(lat, 99.9)
	}
	if len(lag) > 0 {
		p.LagP99Ms = percentile(lag, 99)
		tail := lag[len(lag)-(len(lag)+9)/10:]
		p.EndLagMs = mean(tail)
	}
	p.LagGrowing = aborted || p.EndLagMs > limitMs
	p.Meets = !p.LagGrowing && p.Failed == 0 && p.Sent == scheduled && p.P90Ms <= limitMs
	return p
}

// sloRate reads the highest offered rate that meets the limit off an
// ascending ladder: the last passing rung, moved toward the first failing
// one by where the limit falls between their p90s, so the figure moves
// smoothly instead of jumping a whole rung. A failing first rung scales
// its rate by limit/p90.
func sloRate(rungs []phase) float64 {
	for i, r := range rungs {
		if r.Meets {
			continue
		}
		if i == 0 {
			return r.OfferedRPS * math.Min(1, r.LimitMs/r.P90Ms)
		}
		prev := rungs[i-1]
		frac := 0.0
		if !math.IsInf(r.P90Ms, 1) && r.P90Ms > prev.P90Ms {
			frac = (r.LimitMs - prev.P90Ms) / (r.P90Ms - prev.P90Ms)
			frac = math.Max(0, math.Min(1, frac))
		}
		return prev.OfferedRPS + frac*(r.OfferedRPS-prev.OfferedRPS)
	}
	return rungs[len(rungs)-1].OfferedRPS
}

// writeArtifact writes v as indented JSON to dir/name.
func writeArtifact(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// knee writes one loadgen_<rps>.json per ladder rung into dir.
func knee(dir string, rungs []phase) error {
	for _, r := range rungs {
		if err := writeArtifact(dir, fmt.Sprintf("loadgen_%d.json", int(r.OfferedRPS)), r); err != nil {
			return err
		}
	}
	return nil
}
