package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"solarpred/internal/experiments"
	"solarpred/internal/serve"
)

// forecast-hot: warm guideline-parameter forecasts over every site at
// four sampling rates and three horizons.
var (
	hotNs       = []int{288, 96, 48, 24}
	hotHorizons = []int{1, 12, 24}
)

// The nominal rate keeps the daemon at about an eighth of its capacity,
// so its latency is the request path's and not a queue's. The traced
// run's ladder limit sits where the p90 climbs steeply toward saturation
// (4000–8000/s on a 2-CPU host, depending on what else the host runs).
const (
	hotNominalRPS = 1000.0
	hotLimitMs    = 5.0
)

var hotLadder = []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}

// hotTuples replays the guarded predictor of every (site, N) in the
// benchmark's universe and records the expected forecast per horizon.
func hotTuples(u *universe) ([]*forecastTuple, error) {
	var out []*forecastTuple
	for _, site := range u.cfg.Sites {
		for _, n := range hotNs {
			params := experiments.GuidelineParams(n)
			g, err := replay(u.store, u.cfg.Days, site, n, params)
			if err != nil {
				return nil, err
			}
			for _, h := range hotHorizons {
				f, err := g.Forecast(h)
				if err != nil {
					return nil, err
				}
				out = append(out, &forecastTuple{
					site: site, n: n, h: h, params: params,
					url: forecastURL(site, n, h, nil), want: f.Watts, guarded: g,
				})
			}
		}
	}
	return out, nil
}

// warmHot fetches every tuple once, so each timed request hits a
// published guard.
func warmHot(rep *report, c *http.Client, tuples []*forecastTuple) func(*daemon) error {
	return func(d *daemon) error {
		for _, t := range tuples {
			body, err := fetch(c, http.MethodGet, d.base+t.url)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", t.url, err)
			}
			rep.attempted++
			if err := checkForecast(body, t); err != nil {
				rep.fail("%v", err)
			}
		}
		return nil
	}
}

// hotPhase offers a seeded Poisson stream of tuple requests at rate.
func hotPhase(e *env, c *http.Client, d *daemon, tuples []*forecastTuple) func(*rand.Rand, float64, time.Duration) ([]outcome, int, bool) {
	return func(rng *rand.Rand, rate float64, dur time.Duration) ([]outcome, int, bool) {
		due := poissonSchedule(rng, rate, dur)
		picks := make([]int, len(due))
		for i := range picks {
			picks[i] = rng.Intn(len(tuples))
		}
		outs, aborted := openLoop(due, e.nproc, maxLagFor(hotLimitMs), func(i int) error {
			t := tuples[picks[i]]
			body, err := fetch(c, http.MethodGet, d.base+t.url)
			if err != nil {
				return err
			}
			return checkForecast(body, t)
		})
		return outs, len(due), aborted
	}
}

func forecastHot(e *env) (*report, error) {
	rep := newReport()
	u, err := newUniverse(e.nproc)
	if err != nil {
		return nil, err
	}
	tuples, err := hotTuples(u)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient(e.nproc)
	if e.trace {
		return hotTraced(e, rep, c, u, tuples)
	}
	d, setups, err := setUpDaemons(e, c, warmHot(rep, c, tuples))
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	p50, p90, throughput, err := runSlices(e, rep, "forecast-hot", hotNominalRPS, nil, hotPhase(e, c, d, tuples), hotCapacity(e, c, d, tuples))
	if err != nil {
		return nil, err
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["latency_p50_ms"] = p50
	rep.metrics["latency_p90_ms"] = p90
	rep.metrics["throughput_per_s"] = throughput
	rep.metrics["peak_rss_mib"] = rss
	return rep, nil
}

// hotCapacity sends seeded tuple requests back to back from nproc
// connections for the slice.
func hotCapacity(e *env, c *http.Client, d *daemon, tuples []*forecastTuple) func(*rand.Rand, time.Duration) ([]outcome, time.Duration) {
	return func(rng *rand.Rand, dur time.Duration) ([]outcome, time.Duration) {
		picks := make([]int, int(dur.Seconds()*20000)+1000) // more than the daemon completes
		for i := range picks {
			picks[i] = rng.Intn(len(tuples))
		}
		return closedLoop(len(picks), e.nproc, dur, func(i int) error {
			t := tuples[picks[i]]
			body, err := fetch(c, http.MethodGet, d.base+t.url)
			if err != nil {
				return err
			}
			return checkForecast(body, t)
		})
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing but
// the byte count, so allocation counts are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// hotTraced splits a warm request into layers. Each traced request is
// sent to the daemon (the client span), then replayed in process through
// an identical warm Service: Handler().ServeHTTP, Service.Forecast,
// Guard.Forecast and Store.View, each timed on its own. Untraced
// requests alternate with traced ones for the overhead.
func hotTraced(e *env, rep *report, c *http.Client, u *universe, tuples []*forecastTuple) (*report, error) {
	d, _, err := setUpDaemonOnce(e, c, warmHot(rep, c, tuples))
	if err != nil {
		return nil, err
	}
	defer d.kill()
	cfg := u.cfg
	cfg.Store = u.store
	svc, err := serve.New(serve.Config{Exp: cfg})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	handler := svc.Handler()
	for _, t := range tuples {
		if _, err := svc.Forecast(bg, t.site, t.n, t.h, t.params); err != nil {
			return nil, err
		}
	}

	// A short open-loop phase for the generator's own lag, then the rate
	// ladder.
	run := hotPhase(e, c, d, tuples)
	outs, scheduled, aborted := run(rand.New(rand.NewSource(e.seed)), hotNominalRPS, e.seconds/8)
	rep.tally(outs)
	nominal := summarise(hotNominalRPS, scheduled, outs, aborted, nominalLagMs)
	if nominal.LagGrowing {
		rep.fail("generator lag grew at the nominal %.0f/s", hotNominalRPS)
	}
	rep.metrics["loadgen.lag_p99_ms"] = nominal.LagP99Ms
	slo, err := runLadder(e, rep, "forecast-hot", hotLadder, e.seconds*3/8/time.Duration(len(hotLadder)), hotLimitMs, nil, run)
	if err != nil {
		return nil, err
	}
	rep.metrics["loadgen.slo_rps"] = slo

	before, err := d.stats(c)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rng := rand.New(rand.NewSource(e.seed + 1))
	var untraced, respBytes []float64
	sentBefore := before.Endpoints["forecast"].Requests
	deadline := time.Now().Add(e.seconds / 2)
	for req := 1; time.Now().Before(deadline); req++ {
		t := tuples[rng.Intn(len(tuples))]
		t0 := time.Now()
		body, err := fetch(c, http.MethodGet, d.base+t.url)
		if err == nil {
			err = checkForecast(body, t)
		}
		t1 := time.Now()
		rep.attempted++
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		if req%2 == 0 {
			untraced = append(untraced, float64(t1.Sub(t0).Nanoseconds())/1e3)
			continue
		}
		respBytes = append(respBytes, float64(len(body)))
		client := tr.record(req, 0, "client", t0, t1)

		r, err := http.NewRequest(http.MethodGet, t.url, nil)
		if err != nil {
			return nil, err
		}
		w := &discardWriter{h: make(http.Header)}
		t2 := time.Now()
		handler.ServeHTTP(w, r)
		t3 := time.Now()
		httpSpan := tr.record(req, client, "serve.http", t2, t3)
		if w.status != http.StatusOK || w.n != len(body) {
			rep.fail("in-process %s: status %d, %d bytes; daemon sent %d", t.url, w.status, w.n, len(body))
		}
		t4 := time.Now()
		_, err = svc.Forecast(bg, t.site, t.n, t.h, t.params)
		t5 := time.Now()
		if err != nil {
			return nil, err
		}
		svcSpan := tr.record(req, httpSpan, "serve.service", t4, t5)
		t6 := time.Now()
		_, err = t.guarded.Forecast(t.h)
		t7 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.record(req, svcSpan, "guard.forecast", t6, t7)
		t8 := time.Now()
		_, err = u.store.View(t.site, cfg.Days, t.n)
		t9 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.record(req, svcSpan, "expstore.view", t8, t9)
	}
	after, err := d.stats(c)
	if err != nil {
		return nil, err
	}
	fb, fa := before.Endpoints["forecast"], after.Endpoints["forecast"]
	if dn := fa.Requests - sentBefore; dn > 0 {
		rep.metrics["serve.server_mean_ms"] = (fa.MeanMs*float64(fa.Requests) - fb.MeanMs*float64(fb.Requests)) / float64(dn)
	}

	// Allocation counts around the in-process handler.
	const allocReqs = 500
	reqs := make([]*http.Request, allocReqs)
	for i := range reqs {
		if reqs[i], err = http.NewRequest(http.MethodGet, tuples[i%len(tuples)].url, nil); err != nil {
			return nil, err
		}
	}
	w := &discardWriter{h: make(http.Header)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		clear(w.h)
		handler.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)

	self := selfByName(tr.spans)
	e2e := median(durByName(tr.spans)["client"])
	layers := map[string]string{
		"client": "net.self_us", "serve.http": "serve.http.self_us", "serve.service": "serve.service.self_us",
		"guard.forecast": "guard.forecast_us", "expstore.view": "expstore.view_hit_us",
	}
	var attributed float64
	for span, metric := range layers {
		v := median(self[span])
		rep.metrics[metric] = v
		attributed += v
	}
	m := rep.metrics
	m["forecast.traced_e2e_us"] = e2e
	m["forecast.unattributed_us"] = e2e - attributed
	m["serve.resp_bytes"] = median(respBytes)
	m["runtime.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / allocReqs
	m["runtime.alloc_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / allocReqs
	m["trace.overhead_pct"] = (e2e - median(untraced)) / median(untraced) * 100
	rep.attempted++
	if diff := e2e - attributed; diff > 0.1*e2e || diff < -0.1*e2e {
		rep.fail("forecast layers sum to %.2f µs, traced end to end %.2f µs: outside 10%%", attributed, e2e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: forecast-hot layer shares of %.1f µs:", e2e)
	for _, metric := range []string{"net.self_us", "serve.http.self_us", "serve.service.self_us", "guard.forecast_us", "expstore.view_hit_us", "forecast.unattributed_us"} {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", metric, rep.metrics[metric]/e2e*100)
	}
	fmt.Fprintln(os.Stderr)
	rep.spans = tr.spans
	return rep, nil
}

// setUpDaemonOnce starts one daemon and warms it, for traced runs.
func setUpDaemonOnce(e *env, c *http.Client, warm func(*daemon) error) (*daemon, float64, error) {
	d, err := startDaemon(e.binDir)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitHealthy(c, 30*time.Second); err != nil {
		d.kill()
		return nil, 0, err
	}
	if err := warm(d); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(d.started).Seconds(), nil
}
