package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// --- Batcher ----------------------------------------------------------------

func TestBatcherCoalesces(t *testing.T) {
	b := NewBatcher(4)
	defer b.Close()
	gate := make(chan struct{})
	var computes atomic.Int64

	const clients = 8
	var wg sync.WaitGroup
	results := make([]any, clients)
	errs := make([]error, clients)
	stages := make([]Stages, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], stages[i], errs[i] = b.Submit(context.Background(), "tuple", func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
		}(i)
	}
	// Wait until every client has been admitted (1 dispatch + 7 joins),
	// then release the computation.
	for b.Stats().Coalesced < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computations ran = %d, want 1", got)
	}
	st := b.Stats()
	if st.Computations != 1 || st.Coalesced != clients-1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 computation, %d coalesced, 0 in flight", st, clients-1)
	}
	var coalesced int
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] != 42 {
			t.Fatalf("client %d: result %v", i, results[i])
		}
		s := stages[i]
		if s.Enqueued.IsZero() || s.Dispatched.IsZero() || s.Done.IsZero() || s.Done.Before(s.Dispatched) {
			t.Fatalf("client %d: bad stages %+v", i, s)
		}
		if s.Coalesced {
			coalesced++
		}
	}
	if coalesced != clients-1 {
		t.Fatalf("coalesced stage flags = %d, want %d", coalesced, clients-1)
	}
}

func TestBatcherDistinctKeysRunIndependently(t *testing.T) {
	b := NewBatcher(4)
	defer b.Close()
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%3)
			if _, _, err := b.Submit(context.Background(), key, func(context.Context) (any, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond)
				return key, nil
			}); err != nil {
				t.Errorf("submit %s: %v", key, err)
			}
		}(i)
	}
	wg.Wait()
	if got := computes.Load(); got < 3 || got > 6 {
		t.Fatalf("computations = %d, want within [3,6]", got)
	}
}

func TestBatcherErrorFansOut(t *testing.T) {
	b := NewBatcher(2)
	defer b.Close()
	boom := errors.New("boom")
	gate := make(chan struct{})
	const clients = 4
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, _, err := b.Submit(context.Background(), "bad", func(context.Context) (any, error) {
				<-gate
				return nil, boom
			})
			errCh <- err
		}()
	}
	for b.Stats().Coalesced < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < clients; i++ {
		if err := <-errCh; !errors.Is(err, boom) {
			t.Fatalf("client %d: err = %v, want boom", i, err)
		}
	}
	// The flight is gone: a retry dispatches a fresh computation.
	v, _, err := b.Submit(context.Background(), "bad", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed flight: %v, %v", v, err)
	}
}

func TestBatcherCloseDrains(t *testing.T) {
	b := NewBatcher(2)
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), "slow", func(context.Context) (any, error) {
			<-gate
			return nil, nil
		})
		done <- err
	}()
	for b.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// New work is rejected while the old flight drains.
	for {
		_, _, err := b.Submit(context.Background(), "new", func(context.Context) (any, error) { return nil, nil })
		if errors.Is(err, ErrDraining) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a flight was still in progress")
	default:
	}
	close(gate)
	<-closed
	if err := <-done; err != nil {
		t.Fatalf("in-flight submit during drain: %v", err)
	}
}

func TestBatcherSubmitContextCancelled(t *testing.T) {
	b := NewBatcher(1)
	defer b.Close()
	gate := make(chan struct{})
	defer close(gate)
	go b.Submit(context.Background(), "hold", func(context.Context) (any, error) { <-gate; return nil, nil })
	for b.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Submit(ctx, "hold", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatcherPoolBound pins the worker bound: distinct keys never run
// more computations at once than the pool has workers, and the pool is
// used to its full width.
func TestBatcherPoolBound(t *testing.T) {
	const workers, keys = 2, 16
	b := NewBatcher(workers)
	defer b.Close()
	var running, peak atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Submit(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (any, error) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				started <- struct{}{}
				<-release
				running.Add(-1)
				return i, nil
			}); err != nil {
				t.Errorf("submit k%d: %v", i, err)
			}
		}(i)
	}
	// Fill the pool, then free one slot per further start.
	for i := 0; i < workers; i++ {
		<-started
	}
	for i := workers; i < keys; i++ {
		release <- struct{}{}
		<-started
	}
	for i := 0; i < workers; i++ {
		release <- struct{}{}
	}
	wg.Wait()
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrent computations = %d, want %d", p, workers)
	}
	if st := b.Stats(); st.Computations != keys || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want %d computations, 0 in flight", st, keys)
	}
}

// TestBatcherAbandonDuringDrain pins abandonment while Close waits: the
// only waiter giving up cancels the flight, which lets Close return.
func TestBatcherAbandonDuringDrain(t *testing.T) {
	b := NewBatcher(1)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, "slow", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			close(cancelled)
			return nil, fctx.Err()
		})
		res <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// Drain has begun once the same key is refused with ErrDraining. The
	// probe's context is already dead so it never waits on the flight.
	dead, kill := context.WithCancel(context.Background())
	kill()
	for {
		_, _, err := b.Submit(dead, "slow", func(context.Context) (any, error) { return nil, nil })
		if errors.Is(err, ErrDraining) {
			break
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a flight was still in progress")
	default:
	}
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("submit err = %v, want context.Canceled", err)
	}
	<-cancelled
	<-closed
	if st := b.Stats(); st.Abandoned != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 abandoned, 0 in flight", st)
	}
}

// --- Service over HTTP ------------------------------------------------------

func TestServiceForecastMatchesDirectReplay(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cfg := svc.Config()
	const n, horizon = 48, 6
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	var got ForecastResult
	url := fmt.Sprintf("%s/v1/forecast?site=%s&n=%d&horizon=%d&alpha=%g&d=%d&k=%d",
		ts.URL, cfg.Sites[0], n, horizon, params.Alpha, params.D, params.K)
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}

	// Reference: replay directly from the dataset (the pyramid-derived
	// store view is bit-identical to direct slotting, so the forecasts
	// must match exactly).
	site, err := dataset.SiteByName(cfg.Sites[0])
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, cfg.Days)
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("watts len = %d, want %d", len(got.Watts), horizon)
	}
	for i := range want {
		if got.Watts[i] != want[i] {
			t.Fatalf("watt %d: served %v, direct %v", i, got.Watts[i], want[i])
		}
	}
	if got.SlotMinutes != view.SlotMinutes || got.HistoryDays != p.HistoryDays() {
		t.Fatalf("metadata mismatch: %+v", got)
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
	bs := svc.Batcher().Stats()
	if bs.Computations+bs.Coalesced != clients {
		t.Fatalf("batcher admissions = %d+%d, want %d", bs.Computations, bs.Coalesced, clients)
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
	if _, _, err := svc.Batcher().Submit(context.Background(), "x", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after close: %v", err)
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
