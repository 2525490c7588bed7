package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/guard"
	"solarpred/internal/timeseries"
)

// testConfig is a reduced universe: quick sites, short trace.
func testConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Days = 30
	return cfg
}

func newTestService(t *testing.T) *Service {
	t.Helper()
	svc, err := New(Config{Exp: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// getJSON fetches url and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// --- Service over HTTP ------------------------------------------------------

// TestServiceForecastMatchesDirectReplay pins the served-forecast
// contract for every (site, N) of the quick universe: the forecast over
// HTTP is bit-identical to a raw core.Predictor replayed directly over
// the dataset (the pyramid-derived store view equals direct slotting,
// and the guard is invisible on clean traces).
func TestServiceForecastMatchesDirectReplay(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cfg := svc.Config()
	for _, name := range cfg.Sites {
		site, err := dataset.SiteByName(name)
		if err != nil {
			t.Fatal(err)
		}
		series, err := dataset.GenerateDays(site, cfg.Days)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cfg.Ns {
			horizon := min(6, n)
			params := core.Params{Alpha: 0.7, D: 10, K: 2}
			var got ForecastResult
			url := fmt.Sprintf("%s/v1/forecast?site=%s&n=%d&horizon=%d&alpha=%g&d=%d&k=%d",
				ts.URL, name, n, horizon, params.Alpha, params.D, params.K)
			if code := getJSON(t, url, &got); code != http.StatusOK {
				t.Fatalf("%s n=%d: status = %d", name, n, code)
			}
			view, err := series.Slot(n)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.New(n, params)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < view.TotalSlots(); i++ {
				if err := p.Observe(i%n, view.Start[i]); err != nil {
					t.Fatal(err)
				}
			}
			want, err := p.Forecast(horizon)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Watts) != horizon {
				t.Fatalf("%s n=%d: watts len = %d, want %d", name, n, len(got.Watts), horizon)
			}
			for i := range want {
				if math.Float64bits(got.Watts[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d watt %d: served %v, direct %v", name, n, i, got.Watts[i], want[i])
				}
			}
			if got.SlotMinutes != view.SlotMinutes || got.HistoryDays != p.HistoryDays() || got.Degraded {
				t.Fatalf("%s n=%d: metadata mismatch: %+v", name, n, got)
			}
		}
	}
}

// TestServiceGuardConfigKeysGuard: two services with different guard
// configs over one shared store replay distinct guards for one tuple,
// each under its own config; a third service with the first's config
// shares the first's guard.
func TestServiceGuardConfigKeysGuard(t *testing.T) {
	exp := testConfig()
	strict := guard.DefaultConfig()
	strict.MinQuality = 0.95
	services := make([]*Service, 3)
	for i, gc := range []guard.Config{{}, strict, guard.DefaultConfig()} {
		svc, err := New(Config{Exp: exp, Guard: gc})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		services[i] = svc
	}
	ctx := context.Background()
	const site, n = "SPMD", 48
	params := experiments.GuidelineParams(n)
	guards := make([]*guard.Guard, len(services))
	for i, svc := range services {
		if _, err := svc.Forecast(ctx, site, n, 1, params); err != nil {
			t.Fatal(err)
		}
		g, err := exp.Store.Guard(ctx, site, exp.Days, n, params, svc.guard)
		if err != nil {
			t.Fatal(err)
		}
		guards[i] = g
	}
	if guards[0] == guards[1] {
		t.Fatal("services with different guard configs share one guard")
	}
	if guards[0] != guards[2] {
		t.Fatal("services with equal guard configs replayed two guards")
	}
	if got := guards[1].Config().MinQuality; got != strict.MinQuality {
		t.Fatalf("strict service's guard has MinQuality %v", got)
	}
}

// BenchmarkServiceForecastWarm is the per-request service cost of a warm
// in-process forecast: validation, breaker, store lookups, the guard's
// non-mutating Forecast and the stale-cache write, with no HTTP.
func BenchmarkServiceForecastWarm(b *testing.B) {
	svc, err := New(Config{Exp: testConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	params := experiments.GuidelineParams(48)
	if _, err := svc.Forecast(ctx, "SPMD", 48, 4, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := svc.Forecast(ctx, "SPMD", 48, 4, params); err != nil {
			b.Fatal(err)
		}
	}
}

func TestServiceGridAndTune(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := svc.Config()

	var grid GridResult
	url := fmt.Sprintf("%s/v1/grid?site=%s&n=24", ts.URL, cfg.Sites[0])
	if code := getJSON(t, url, &grid); code != http.StatusOK {
		t.Fatalf("grid status = %d", code)
	}
	if len(grid.Cells) != cfg.Space.Size() {
		t.Fatalf("cells = %d, want %d", len(grid.Cells), cfg.Space.Size())
	}
	want, err := cfg.Store.Grid(cfg.Sites[0], cfg.Days, 24, cfg.EvalOptions(), cfg.Space, 0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Best != cellResult(want.Best) {
		t.Fatalf("best = %+v, want %+v", grid.Best, cellResult(want.Best))
	}

	var tune TuneResult
	url = fmt.Sprintf("%s/v1/tune?site=%s&n=24", ts.URL, cfg.Sites[0])
	if code := getJSON(t, url, &tune); code != http.StatusOK {
		t.Fatalf("tune status = %d", code)
	}
	if tune.Best != grid.Best {
		t.Fatalf("tune best %+v != grid best %+v", tune.Best, grid.Best)
	}
	if tune.BestAtK2 == nil || tune.BestAtK2.K != 2 {
		t.Fatalf("tune K=2 cell = %+v", tune.BestAtK2)
	}
	if tune.Guideline.MAPE < tune.Best.MAPE {
		t.Fatalf("guideline MAPE %v below optimum %v", tune.Guideline.MAPE, tune.Best.MAPE)
	}
	if got := tune.GuidelinePenalty; got != tune.Guideline.MAPE-tune.Best.MAPE {
		t.Fatalf("penalty = %v", got)
	}

	// A sub-space override evaluates a smaller grid.
	var sub GridResult
	url = fmt.Sprintf("%s/v1/grid?site=%s&n=24&alphas=0,0.5,1&ds=2,5&ks=1,2", ts.URL, cfg.Sites[0])
	if code := getJSON(t, url, &sub); code != http.StatusOK {
		t.Fatalf("sub-grid status = %d", code)
	}
	if len(sub.Cells) != 3*2*2 {
		t.Fatalf("sub-grid cells = %d, want 12", len(sub.Cells))
	}
}

func TestServiceBadRequests(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []string{
		"/v1/forecast",                          // missing site
		"/v1/forecast?site=NOPE&n=48",           // unknown site
		"/v1/forecast?site=SPMD&n=0",            // bad n
		"/v1/forecast?site=SPMD&n=48&horizon=0", // bad horizon
		"/v1/forecast?site=SPMD&n=48&alpha=2",   // alpha out of range
		"/v1/forecast?site=SPMD&n=48&k=96",      // K > n
		"/v1/forecast?site=SPMD&n=banana",       // unparsable
		"/v1/forecast?site=SPMD&n=7",            // slotting undefined for 7
		"/v1/grid?site=SPMD&n=24&ref=median",    // unknown ref
		"/v1/grid?site=SPMD&n=24&ds=2,x",        // bad list
		"/v1/grid?site=SPMD&n=24&ds=25",         // D beyond warm-up
		"/v1/grid?site=SPMD&n=24&alphas=",       // handled: empty means default
	}
	for _, c := range cases[:len(cases)-1] {
		var e errorBody
		if code := getJSON(t, ts.URL+c, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%+v)", c, code, e)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", c)
		}
	}
	if code := getJSON(t, ts.URL+cases[len(cases)-1], nil); code != http.StatusOK {
		t.Errorf("empty alphas list: status = %d, want 200 (default space)", code)
	}
	if code := getJSON(t, ts.URL+"/v1/reset", nil); code != http.StatusBadRequest {
		t.Errorf("GET reset: status = %d, want 400", code)
	}
}

// TestServiceConcurrentTupleLoad is the acceptance load test: ≥ 8
// clients querying the same (site, N, space, ref) tuple concurrently
// must cause exactly one store grid miss.
func TestServiceConcurrentTupleLoad(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := svc.Config()

	const clients = 12
	url := fmt.Sprintf("%s/v1/grid?site=%s&n=48", ts.URL, cfg.Sites[0])
	results := make([]GridResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := getJSON(t, url, &results[i]); code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()

	st := svc.Store().Stats()
	if st.Grid.Misses != 1 {
		t.Fatalf("grid misses = %d, want exactly 1 (stats %+v)", st.Grid.Misses, st)
	}
	if st.Grid.Hits+st.Grid.Misses != clients {
		t.Fatalf("grid lookups = %d+%d, want %d", st.Grid.Hits, st.Grid.Misses, clients)
	}
	for i := 1; i < clients; i++ {
		if results[i].Best != results[0].Best {
			t.Fatalf("client %d saw a different best cell", i)
		}
	}

	// The endpoint metrics saw every request.
	stats := svc.Stats()
	ep := stats.Endpoints[epGrid]
	if ep.Requests != clients || ep.Errors != 0 || ep.InFlight != 0 {
		t.Fatalf("grid endpoint stats = %+v", ep)
	}
	if ep.MeanMs <= 0 || ep.MaxMs < ep.MeanMs {
		t.Fatalf("latency accounting: %+v", ep)
	}
}

// TestServiceErrorThenRetry drives the store's attempt-scoped failure
// semantics end to end: a tuple whose first computation fails serves 500
// once, then succeeds on retry.
func TestServiceErrorThenRetry(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Days = 30
	var calls atomic.Int64
	cfg.Store = expstore.New(func(site string, days int) (*timeseries.Series, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient trace failure")
		}
		s, err := dataset.SiteByName(site)
		if err != nil {
			return nil, err
		}
		return dataset.GenerateDays(s, days)
	}, cfg.Ns)
	svc, err := New(Config{Exp: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	url := fmt.Sprintf("%s/v1/forecast?site=%s&n=48&horizon=2", ts.URL, cfg.Sites[0])
	var e errorBody
	if code := getJSON(t, url, &e); code != http.StatusInternalServerError {
		t.Fatalf("first attempt: status = %d, want 500", code)
	}
	var got ForecastResult
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("retry: status = %d, want 200", code)
	}
	if len(got.Watts) != 2 {
		t.Fatalf("retry watts = %v", got.Watts)
	}
}

// TestServiceResetUnderLoad flushes the cache while clients hammer the
// API; every request must still succeed (under -race).
func TestServiceResetUnderLoad(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := svc.Config()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			urls := []string{
				fmt.Sprintf("%s/v1/forecast?site=%s&n=24&horizon=3", ts.URL, cfg.Sites[g%len(cfg.Sites)]),
				fmt.Sprintf("%s/v1/grid?site=%s&n=24", ts.URL, cfg.Sites[g%len(cfg.Sites)]),
				ts.URL + "/v1/stats",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if code := getJSON(t, urls[i%len(urls)], nil); code != http.StatusOK {
					t.Errorf("goroutine %d: status %d mid-reset", g, code)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/reset", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reset %d: status %d", i, resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestServiceGracefulDrain verifies the shutdown contract: after
// BeginDrain, /healthz reports draining, every other endpoint returns
// 503, and Close waits for in-flight computations.
func TestServiceGracefulDrain(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := svc.Config()

	// Warm one tuple, then start load that straddles the drain flip.
	warmURL := fmt.Sprintf("%s/v1/grid?site=%s&n=24", ts.URL, cfg.Sites[0])
	if code := getJSON(t, warmURL, nil); code != http.StatusOK {
		t.Fatalf("warm request: %d", code)
	}
	var wg sync.WaitGroup
	codes := make(chan int, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp, err := http.Get(warmURL)
				if err != nil {
					t.Errorf("load during drain: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	svc.BeginDrain()
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Fatalf("status %d during drain, want 200 or 503", c)
		}
	}

	var h healthBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "draining" {
		t.Fatalf("healthz during drain = %d %+v", code, h)
	}
	var e errorBody
	if code := getJSON(t, ts.URL+"/v1/stats", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("stats during drain = %d", code)
	}
	svc.Close()
	if f := svc.Store().Flights(); f.InFlight != 0 {
		t.Fatalf("in flight after Close = %d", f.InFlight)
	}
	if _, err := svc.Forecast(context.Background(), cfg.Sites[0], 24, 1, experiments.GuidelineParams(24)); !errors.Is(err, ErrDraining) {
		t.Fatalf("forecast after close: %v", err)
	}
	if _, err := svc.Grid(context.Background(), cfg.Sites[0], 24, cfg.Space, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("grid after close: %v", err)
	}
}

func TestServiceNewAndDraining(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a zero config")
	}
	// The service reads the experiment config's store; it builds none.
	cfg := testConfig()
	cfg.Store = nil
	if _, err := New(Config{Exp: cfg}); err == nil {
		t.Fatal("New accepted a config without a store")
	}
	cfg = testConfig()
	svc, err := New(Config{Exp: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Store() != cfg.Store {
		t.Fatal("service does not read the config's store")
	}
	if svc.Draining() {
		t.Fatal("fresh service reports draining")
	}
	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatal("BeginDrain did not flip the drain flag")
	}
}

func TestServiceParamParseErrors(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, c := range []string{
		"/v1/forecast?site=SPMD&n=24&alpha=banana",
		"/v1/forecast?site=SPMD&n=24&d=banana",
		"/v1/forecast?site=SPMD&n=24&k=banana",
		"/v1/tune?site=SPMD&n=banana",
		"/v1/tune?site=SPMD&n=24&ref=median",
		"/v1/grid?site=SPMD&n=24&ks=1,x",
		"/v1/grid?site=SPMD&n=24&alphas=0,x",
	} {
		if code := getJSON(t, ts.URL+c, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c, code)
		}
	}
	// ref=start selects the slot-start reference and still tunes.
	var tune TuneResult
	if code := getJSON(t, ts.URL+"/v1/tune?site=SPMD&n=24&ref=start&alphas=0,1&ds=2&ks=1,2", &tune); code != http.StatusOK {
		t.Fatalf("tune ref=start: status = %d", code)
	}
	if tune.Best.MAPE <= 0 {
		t.Fatalf("tune ref=start best = %+v", tune.Best)
	}
}

func TestServiceStatsAndHealth(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var h healthBody
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/forecast?site=%s&n=24", svc.Config().Sites[0]), nil); code != http.StatusOK {
		t.Fatalf("forecast warm-up failed: %d", code)
	}
	var st StatsResult
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.UptimeSeconds <= 0 || st.Draining {
		t.Fatalf("stats = %+v", st)
	}
	if st.Store.View.Misses == 0 {
		t.Fatalf("store misses unaccounted: %+v", st.Store)
	}
	if st.Endpoints[epForecast].Requests != 1 || st.Endpoints[epHealth].Requests != 1 {
		t.Fatalf("endpoint accounting: %+v", st.Endpoints)
	}
	if st.StoreEntries == 0 {
		t.Fatal("store entries = 0 after a forecast")
	}
}
