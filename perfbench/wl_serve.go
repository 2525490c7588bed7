package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/guard"
	"solarpred/internal/serve"
)

// universe is the benchmark's own copy of the daemon's data: the same
// paper-scale configuration over a store the daemon never touches, so
// every served output can be recomputed directly.
type universe struct {
	cfg   experiments.Config
	store *expstore.Store
}

// newUniverse builds the store and generates every site's trace, spread
// over workers goroutines.
func newUniverse(workers int) (*universe, error) {
	cfg := experiments.DefaultConfig()
	u := &universe{cfg: cfg, store: experiments.NewStore(cfg)}
	errs := make([]error, len(cfg.Sites))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cfg.Sites); i += workers {
				_, errs[i] = u.store.View(cfg.Sites[i], cfg.Days, cfg.Ns[0])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

// replay builds the guarded predictor the service publishes for a tuple:
// guard.New, then Observe over the site's whole slot view.
func replay(store *expstore.Store, days int, site string, n int, params core.Params) (*guard.Guard, error) {
	view, err := store.View(site, days, n)
	if err != nil {
		return nil, err
	}
	g, err := guard.New(n, params, guard.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for t := 0; t < view.TotalSlots(); t++ {
		if err := g.Observe(t%n, view.Start[t]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// forecastTuple is one forecast query with its expected watts.
type forecastTuple struct {
	site    string
	n, h    int
	params  core.Params
	url     string
	want    []float64
	guarded *guard.Guard
}

func forecastURL(site string, n, h int, p *core.Params) string {
	u := fmt.Sprintf("/v1/forecast?site=%s&n=%d&horizon=%d", site, n, h)
	if p != nil {
		u += fmt.Sprintf("&alpha=%s&d=%d&k=%d", fkey(p.Alpha), p.D, p.K)
	}
	return u
}

// checkForecast decodes a /v1/forecast body and compares it with the
// tuple's direct replay, watts bit for bit.
func checkForecast(body []byte, t *forecastTuple) error {
	var got serve.ForecastResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("forecast %s: %w", t.url, err)
	}
	if got.Site != t.site || got.N != t.n || got.Horizon != t.h || got.Degraded {
		return fmt.Errorf("forecast %s: got site %q n %d horizon %d degraded %v", t.url, got.Site, got.N, got.Horizon, got.Degraded)
	}
	if !sameFloats(got.Watts, t.want) {
		return fmt.Errorf("forecast %s: watts %v, direct replay %v", t.url, got.Watts, t.want)
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// statusError is a non-2xx response.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// fetch sends one request and returns the body of a 2xx response.
func fetch(c *http.Client, method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if len(body) > 200 {
			body = body[:200]
		}
		return nil, &statusError{resp.StatusCode, string(body)}
	}
	return body, nil
}

// setUpDaemons execs the daemon three times, timing exec → /healthz ok →
// warm-up done each time, and keeps the last one running.
func setUpDaemons(e *env, c *http.Client, warm func(*daemon) error) (*daemon, []float64, error) {
	var setups []float64
	for {
		d, setup, err := setUpDaemonOnce(e, c, warm)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		if len(setups) == 3 {
			return d, setups, nil
		}
		if _, err := d.stop(); err != nil {
			return nil, nil, err
		}
		c.CloseIdleConnections()
	}
}

// tally adds a phase's operations to the run's counts.
func (rep *report) tally(outs []outcome) {
	for _, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.fail("%v", o.err)
		}
	}
}

// runLadder offers each rate in turn for rungDur and writes the knee
// curve. prepare, if set, runs untimed before each rung is offered. A
// rung that misses the limit is offered once more with a fresh schedule,
// so one stall of the host does not end the ladder; the ladder stops at
// the first rung that misses twice.
func runLadder(e *env, rep *report, name string, rates []float64, rungDur time.Duration, limitMs float64, prepare func() error,
	run func(rng *rand.Rand, rate float64, dur time.Duration) ([]outcome, int, bool)) (float64, error) {
	var rungs []phase
	for i, rate := range rates {
		var p phase
		for try := int64(0); try < 2 && !p.Meets; try++ {
			if prepare != nil {
				if err := prepare(); err != nil {
					return 0, err
				}
			}
			rng := rand.New(rand.NewSource(e.seed*1000003 + 2*int64(i) + try + 1))
			outs, scheduled, aborted := run(rng, rate, rungDur)
			rep.tally(outs)
			p = summarise(rate, scheduled, outs, aborted, limitMs)
			fmt.Fprintf(os.Stderr, "perfbench: %s rung %.0f/s: sent %d/%d p50 %.3f p90 %.3f p99 %.3f ms lag p99 %.3f ms meets %v\n",
				name, rate, p.Sent, p.Scheduled, p.P50Ms, p.P90Ms, p.P99Ms, p.LagP99Ms, p.Meets)
		}
		rungs = append(rungs, p)
		if !p.Meets {
			break
		}
	}
	if err := knee(fmt.Sprintf("%s/knee/%s-seed%d", e.outDir, name, e.seed), rungs); err != nil {
		return 0, err
	}
	return sloRate(rungs), nil
}

// nominalLagMs is the latency limit a nominal phase's generator lag is
// held to: a lag that ends the phase above it was growing.
const nominalLagMs = 25.0

// serveSlices is how many nominal-rate slices and as many capacity slices
// alternate in an untraced serve run. Each end-to-end figure is the
// median over its slices, so a burst of other load on a shared host that
// spoils one or two slices does not move it.
const serveSlices = 5

// runSlices alternates serveSlices open-loop slices at rate with as many
// closed-loop capacity slices, each nominally a tenth of the run;
// prepare, if set, runs untimed before each open-loop slice. It returns
// the medians of the slices' p50 and p90 latency and of their completed
// operations per second.
func runSlices(e *env, rep *report, name string, rate float64, prepare func() error,
	open func(rng *rand.Rand, rate float64, dur time.Duration) ([]outcome, int, bool),
	closed func(rng *rand.Rand, dur time.Duration) ([]outcome, time.Duration)) (p50, p90, perSec float64, err error) {
	dur := e.seconds / (2 * serveSlices)
	var p50s, p90s, rates []float64
	for i := int64(0); i < serveSlices; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, 0, 0, err
			}
		}
		outs, scheduled, aborted := open(rand.New(rand.NewSource(e.seed*64+i)), rate, dur)
		rep.tally(outs)
		p := summarise(rate, scheduled, outs, aborted, nominalLagMs)
		if p.LagGrowing {
			rep.fail("%s: generator lag grew at the nominal %.0f/s (end lag %.3f ms)", name, rate, p.EndLagMs)
		}
		capOuts, elapsed := closed(rand.New(rand.NewSource(e.seed*64+32+i)), dur)
		rep.tally(capOuts)
		done := float64(len(capOuts)) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: %s slice %d: p50 %.3f p90 %.3f ms at %.0f/s; capacity %.0f/s\n", name, i, p.P50Ms, p.P90Ms, rate, done)
		p50s, p90s, rates = append(p50s, p.P50Ms), append(p90s, p.P90Ms), append(rates, done)
	}
	return median(p50s), median(p90s), median(rates), nil
}

func maxLagFor(limitMs float64) time.Duration {
	return time.Duration(math.Max(20*limitMs, 100) * 1e6)
}

var bg = context.Background()

// fkey formats a float exactly, as the service keys it.
func fkey(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
