package serve

// The chaos suite drives the service through the failure modes the
// robustness layer exists for — induced compute panics, sustained
// overload, repeated store failures, deadline storms and corrupted
// sensor streams — and asserts the documented contracts: panics are
// contained to their flight, overload sheds with 429 instead of
// collapsing, the breaker opens/probes/closes, abandoned computations
// are cancelled, degraded forecasts are flagged, and no goroutines leak
// once the storm drains. Run under -race (CI's chaos job does).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/faults"
	"solarpred/internal/timeseries"
)

// leakCheck snapshots the goroutine count and fails the test if, after
// everything the test registered via t.Cleanup has shut down, the count
// does not settle back near the snapshot.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after drain\n%s", before, now, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// cleanTrace is the generator-backed TraceFunc the chaos stores wrap.
func cleanTrace(site string, days int) (*timeseries.Series, error) {
	s, err := dataset.SiteByName(site)
	if err != nil {
		return nil, err
	}
	return dataset.GenerateDays(s, days)
}

// chaosService builds a service over a custom trace function with tight
// robustness knobs for fast tests.
func chaosService(t *testing.T, trace expstore.TraceFunc, mut func(*Config)) *Service {
	t.Helper()
	cfg := experiments.QuickConfig()
	cfg.Days = 30
	cfg.Store = expstore.New(trace, cfg.Ns)
	sc := Config{Exp: cfg}
	if mut != nil {
		mut(&sc)
	}
	svc, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestChaosPanicFlightContained: a panic inside a store computation
// errors every waiter of that flight with the panic's message, evicts
// the flight, leaves the store unpoisoned and the pool alive — the next
// identical request recomputes and succeeds.
func TestChaosPanicFlightContained(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		if calls.Add(1) == 1 {
			panic("chaos: injected trace panic")
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		// Panic containment is the subject here, not the breaker: six
		// concurrent failures must not trip it before the retry.
		c.BreakerThreshold = 100
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=2", ts.URL)

	// Concurrent waiters coalesce onto the panicking flight; each must
	// get the error, none may hang.
	const clients = 6
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var e errorBody
			codes[i] = getJSON(t, url, &e)
			bodies[i] = e.Error
		}(i)
	}
	wg.Wait()

	var failed int
	for i := 0; i < clients; i++ {
		switch codes[i] {
		case http.StatusInternalServerError:
			failed++
			if !strings.Contains(bodies[i], "panic") {
				t.Errorf("client %d: 500 without panic context: %q", i, bodies[i])
			}
		case http.StatusOK:
			// A racer that arrived after the evicted flight recomputed.
		default:
			t.Errorf("client %d: status %d", i, codes[i])
		}
	}
	if failed == 0 {
		t.Fatal("no client observed the panic")
	}
	if p := svc.Store().Flights().Panics; p < 1 {
		t.Fatalf("flight panics = %d, want >= 1", p)
	}

	// The flight is gone and the pool survived: the same request now
	// succeeds, and so does other work.
	var got ForecastResult
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("retry after panic: status %d", code)
	}
	if len(got.Watts) != 2 || got.Degraded {
		t.Fatalf("retry result: %+v", got)
	}
}

// TestChaosOverloadSheds: with a tiny admission bound and a wedged
// compute pool, excess requests observe 429 + Retry-After immediately
// (bounded queueing, no collapse); admitted ones complete once the pool
// frees up.
func TestChaosOverloadSheds(t *testing.T) {
	leakCheck(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		<-gate
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.MaxBacklog = 2
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Fill the backlog with two requests wedged on the gate.
	var wg sync.WaitGroup
	admitted := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=%d", ts.URL, i+1)
			admitted <- getJSON(t, url, nil)
		}(i)
	}
	for svc.backlog.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	// Every further request is shed, fast, with a retry hint.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/grid?site=NPCS&n=24", ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d, want 429", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	st := svc.Stats()
	if st.Endpoints[epGrid].Shed != 5 {
		t.Fatalf("shed counter = %d, want 5", st.Endpoints[epGrid].Shed)
	}
	if st.Backlog != 2 || st.MaxBacklog != 2 {
		t.Fatalf("backlog accounting: %+v", st)
	}

	// Health and stats stay reachable under overload — they are not
	// compute endpoints and must not be shed.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz under overload: %d", code)
	}

	release()
	wg.Wait()
	close(admitted)
	for code := range admitted {
		if code != http.StatusOK {
			t.Fatalf("admitted request finished %d", code)
		}
	}
}

// TestChaosBreakerLifecycle drives the full closed → open → half-open →
// closed transition with an injected clock: repeated store failures trip
// the breaker, rejected requests fail fast without touching the store,
// and after the cooldown a single successful probe closes it.
func TestChaosBreakerLifecycle(t *testing.T) {
	leakCheck(t)
	var failing atomic.Bool
	failing.Store(true)
	var storeCalls atomic.Int64
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		storeCalls.Add(1)
		if failing.Load() {
			return nil, errors.New("chaos: store down")
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = time.Hour
	})
	base := time.Now()
	var clockNs atomic.Int64
	svc.breakers[classForecast].now = func() time.Time {
		return base.Add(time.Duration(clockNs.Load()))
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=1", ts.URL)

	// Three consecutive failures: 500s, breaker still counting.
	for i := 0; i < 3; i++ {
		if code := getJSON(t, url, nil); code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, code)
		}
	}
	if st := svc.breakers[classForecast].stats(); st.State != "open" || st.Opens != 1 {
		t.Fatalf("breaker after threshold: %+v", st)
	}

	// Open: fail fast with 503 + Retry-After; the store is not touched.
	before := storeCalls.Load()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open breaker: no Retry-After")
	}
	if storeCalls.Load() != before {
		t.Fatal("open breaker touched the store")
	}

	// Cooldown over, store healthy again: the half-open probe closes it.
	clockNs.Add(int64(2 * time.Hour))
	failing.Store(false)
	var got ForecastResult
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("half-open probe: status %d", code)
	}
	if st := svc.breakers[classForecast].stats(); st.State != "closed" {
		t.Fatalf("breaker after probe: %+v", st)
	}
	if got.Degraded || got.Stale {
		t.Fatalf("healthy forecast flagged: %+v", got)
	}

	// A failed probe re-opens: break the store, flush its warm entries
	// (so failures actually reach the trace function), trip again,
	// advance, probe.
	failing.Store(true)
	svc.Reset()
	for i := 0; i < 3; i++ {
		getJSON(t, url+"&d=9", nil) // distinct tuple, same breaker class
	}
	if st := svc.breakers[classForecast].stats(); st.State != "open" || st.Opens != 2 {
		t.Fatalf("breaker after re-trip: %+v", st)
	}
	clockNs.Add(int64(2 * time.Hour))
	if code := getJSON(t, url+"&d=9", nil); code != http.StatusInternalServerError {
		t.Fatalf("failing probe: status %d, want 500", code)
	}
	if st := svc.breakers[classForecast].stats(); st.State != "open" || st.Opens != 3 {
		t.Fatalf("breaker after failed probe: %+v", st)
	}
}

// TestChaosStaleWhileRevalidate: while the forecast breaker is open, a
// tuple with a last-good cached result serves it flagged degraded+stale
// instead of failing fast.
func TestChaosStaleWhileRevalidate(t *testing.T) {
	leakCheck(t)
	var failing atomic.Bool
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		if failing.Load() {
			return nil, errors.New("chaos: store down")
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=3", ts.URL)

	// Warm the tuple while healthy: its result enters the stale cache.
	var healthy ForecastResult
	if code := getJSON(t, url, &healthy); code != http.StatusOK {
		t.Fatalf("warm: %d", code)
	}

	// Kill the store, flush the caches (stale survives Reset — it is
	// the safety net for exactly this moment), trip the breaker.
	failing.Store(true)
	svc.Reset()
	for i := 0; i < 2; i++ {
		if code := getJSON(t, url, nil); code != http.StatusInternalServerError {
			t.Fatalf("trip %d: status %d", i, code)
		}
	}

	// Breaker open: the tuple serves its last-good result, degraded.
	var stale ForecastResult
	if code := getJSON(t, url, &stale); code != http.StatusOK {
		t.Fatalf("stale serve: status %d", code)
	}
	if !stale.Degraded || !stale.Stale {
		t.Fatalf("stale result not flagged: %+v", stale)
	}
	if len(stale.Watts) != len(healthy.Watts) {
		t.Fatalf("stale watts %v != healthy %v", stale.Watts, healthy.Watts)
	}
	for i := range healthy.Watts {
		if stale.Watts[i] != healthy.Watts[i] {
			t.Fatalf("stale watt %d: %v != %v", i, stale.Watts[i], healthy.Watts[i])
		}
	}

	// A tuple with no cached result still fails fast with 503.
	other := fmt.Sprintf("%s/v1/forecast?site=NPCS&n=48&horizon=3", ts.URL)
	resp, err := http.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached tuple during open: %d, want 503", resp.StatusCode)
	}
}

// TestChaosDeadlineStorm: requests against a wedged store blow the
// server-side deadline with 504; their abandoned flight is cancelled
// (the replay observes the flight context and stops), and once the store
// unwedges, fresh requests succeed.
func TestChaosDeadlineStorm(t *testing.T) {
	leakCheck(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	var wedged atomic.Bool
	wedged.Store(true)
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		if wedged.Load() {
			<-gate
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.RequestTimeout = 50 * time.Millisecond
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=1", ts.URL)

	// A storm of doomed requests: every one must come back 504, quickly.
	const storm = 8
	var wg sync.WaitGroup
	codes := make([]int, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var e errorBody
			codes[i] = getJSON(t, url, &e)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Fatalf("storm request %d: status %d, want 504", i, code)
		}
	}

	// Every waiter abandoned the coalesced guard flight, so it was
	// cancelled, and so were the view, pyramid and series flights below
	// it that only it waited on.
	waitFor(t, time.Second, func() bool {
		return svc.Store().Flights().Abandoned >= 1
	}, "abandoned flight not counted")

	// Unwedge; the series flight stuck behind the gate returns, fails
	// as abandoned and leaves no flight running.
	wedged.Store(false)
	release()
	waitFor(t, time.Second, func() bool {
		return svc.Store().Flights().InFlight == 0
	}, "cancelled flight never completed")

	// The service recovers: the same tuple now computes fresh.
	var got ForecastResult
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("post-storm forecast: status %d", code)
	}
	if got.Degraded {
		t.Fatalf("post-storm forecast degraded: %+v", got)
	}
}

// TestChaosDegradedForecast: a site whose sensor stream goes bad (a held
// constant over the final days) replays into a degraded guard; the
// forecast comes back 200 with degraded: true and the published guard's
// detector counts show the held stream.
func TestChaosDegradedForecast(t *testing.T) {
	leakCheck(t)
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		series, err := cleanTrace(site, days)
		if err != nil || site != "SPMD" {
			return series, err
		}
		// Hold SPMD's last two days at a constant positive value — a
		// stuck acquisition path after a mostly-healthy month.
		samples := append([]float64(nil), series.Samples...)
		perDay := series.SamplesPerDay()
		for i := len(samples) - 2*perDay; i < len(samples); i++ {
			samples[i] = 7.5
		}
		return timeseries.New(series.ResolutionMinutes, samples)
	}, nil)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var got ForecastResult
	url := fmt.Sprintf("%s/v1/forecast?site=SPMD&n=48&horizon=4", ts.URL)
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("degraded forecast: status %d", code)
	}
	if !got.Degraded || got.Stale {
		t.Fatalf("corrupted stream not flagged degraded: %+v", got)
	}
	computations := svc.Store().Flights().Computations
	g, err := svc.Store().Guard(context.Background(), "SPMD", svc.Config().Days, 48, experiments.GuidelineParams(48), svc.guard)
	if err != nil {
		t.Fatal(err)
	}
	if c := svc.Store().Flights().Computations; c != computations {
		t.Fatalf("guard replayed again (%d computations, was %d)", c, computations)
	}
	if got.Quality >= g.Config().MinQuality {
		t.Fatalf("quality %v above floor", got.Quality)
	}
	gs := g.Stats()
	if gs.DetectedKind(faults.Dropout) == 0 {
		t.Fatalf("held stream not detected: %+v", gs)
	}
	if !gs.Degraded {
		t.Fatalf("guard stats not degraded: %+v", gs)
	}

	// A clean site through the same service stays pristine.
	var clean ForecastResult
	if code := getJSON(t, fmt.Sprintf("%s/v1/forecast?site=NPCS&n=48&horizon=4", ts.URL), &clean); code != http.StatusOK {
		t.Fatalf("clean forecast: status %d", code)
	}
	if clean.Degraded || clean.Quality != 1 {
		t.Fatalf("clean site flagged: %+v", clean)
	}
}

// TestChaosMixedStormNoLeaks is the drain acceptance test: panics,
// deadline storms and overload all at once, then BeginDrain + Close —
// every goroutine must be gone afterwards (leakCheck) and Close must
// return with no flights in the map.
func TestChaosMixedStormNoLeaks(t *testing.T) {
	leakCheck(t)
	var mode atomic.Int64 // rotates failure modes per store call
	svc := chaosService(t, func(site string, days int) (*timeseries.Series, error) {
		switch mode.Add(1) % 4 {
		case 0:
			panic("chaos: storm panic")
		case 1:
			return nil, errors.New("chaos: storm error")
		case 2:
			time.Sleep(30 * time.Millisecond)
		}
		return cleanTrace(site, days)
	}, func(c *Config) {
		c.MaxBacklog = 4
		c.RequestTimeout = 40 * time.Millisecond
		c.BreakerThreshold = 4
		c.BreakerCooldown = 50 * time.Millisecond
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sites := []string{"SPMD", "NPCS"}
			for i := 0; i < 12; i++ {
				url := fmt.Sprintf("%s/v1/forecast?site=%s&n=%d&horizon=%d",
					ts.URL, sites[i%2], 24+24*(g%2), 1+i%3)
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("storm request: %v", err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusInternalServerError,
					http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout:
				default:
					t.Errorf("storm status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	svc.BeginDrain()
	svc.Close() // blocks until every flight has answered
	if inflight := svc.Store().Flights().InFlight; inflight != 0 {
		t.Fatalf("in-flight after Close: %d", inflight)
	}
	// leakCheck (cleanup) asserts the goroutine count settles.
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
