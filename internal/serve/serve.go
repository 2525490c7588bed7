// Package serve implements the service layer behind cmd/solarpredd, the
// prediction daemon: one warm expstore.Store wrapped in an HTTP/JSON API
// serving forecast, grid and tuning queries to duty-cycled nodes.
//
// The layering, bottom to top:
//
//   - expstore.Store memoises traces, views, evaluators, grid results
//     and replayed guards (shared with the experiment drivers, so a
//     repro run and the daemon warm the same entries). Its flight map is
//     the only deduplication layer: concurrent requests for one key
//     share one computation, a computation every waiter has abandoned
//     is cancelled, a panic is contained to the flight that raised it,
//     and at most GOMAXPROCS computations run at once;
//   - Service owns the request semantics (validation, forecast and
//     grid/tune conversion, drain, admin reset), the per-key-class
//     circuit breakers, the stale-forecast fallback and the
//     per-endpoint metrics;
//   - the HTTP handlers in http.go parse, shed load past the backlog
//     bound (429 + Retry-After), enforce the server-side request
//     deadline, instrument and encode.
//
// Forecasts run behind guard.Guard, the online input-quality gate: the
// store replays the guard over a site's cached slot view on the single
// goroutine of a store flight, then publishes it read-only — every
// subsequent forecast for the tuple calls the guard's non-mutating
// Forecast. Observe is never exposed over the API. On the generator's
// clean traces the guard is invisible (forecasts bit-identical to a raw
// core.Predictor); on damaged inputs it repairs what it can and falls
// back to the μD climatology, surfacing degraded: true.
//
// Failure ladder, outside in: a request beyond the admission bound is
// shed with 429 before touching compute; a key class whose computations
// keep failing trips its circuit breaker and fails fast with 503 +
// Retry-After (forecasts serve the last-good cached result flagged
// degraded+stale instead, while the breaker recovers through a half-open
// probe); a computation that outlives the server deadline returns 504
// and is cancelled once its last waiter gives up.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/guard"
	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// ErrDraining is returned for work requested after BeginDrain.
var ErrDraining = errors.New("serve: draining, not accepting new work")

// ErrShed is returned (wrapped in a *RetryableError) when the admission
// backlog is full and the request was shed, mapped to 429.
var ErrShed = errors.New("serve: overloaded, shedding load")

// Defaults for the robustness knobs.
const (
	// DefaultMaxBacklog bounds how many compute requests may be admitted
	// concurrently before new ones are shed with 429.
	DefaultMaxBacklog = 256
	// DefaultBreakerThreshold is the consecutive-failure count that
	// trips a key class's circuit breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long a tripped breaker fails fast
	// before admitting a half-open probe.
	DefaultBreakerCooldown = 5 * time.Second
	// staleCap bounds the stale-forecast fallback cache.
	staleCap = 256
)

// Config scopes a Service.
type Config struct {
	// Exp fixes the data universe the daemon serves: sites, trace length,
	// warm-up, sampling-rate ladder and default search space. Its Store
	// (required, as experiments.Config.Validate checks) is the one
	// experiment store every request reads.
	Exp experiments.Config
	// RequestTimeout is the server-side deadline applied to each compute
	// request (forecast/grid/tune); 0 disables it.
	RequestTimeout time.Duration
	// MaxBacklog bounds concurrently admitted compute requests; past it
	// new ones are shed with 429 + Retry-After. 0 means
	// DefaultMaxBacklog; negative disables shedding.
	MaxBacklog int
	// BreakerThreshold and BreakerCooldown tune the per-key-class
	// circuit breakers; zero values take the defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Guard configures the input-quality gate forecasts run behind; the
	// zero value means guard.DefaultConfig.
	Guard guard.Config
}

// Breaker key classes: forecasts and grid-shaped work (grid + tune) fail
// independently, so each class trips on its own.
const (
	classForecast = "forecast"
	classGrid     = "grid"
)

// Service is the daemon's request layer over one experiment store.
// Construct with New; stop with BeginDrain followed by Close.
type Service struct {
	cfg      experiments.Config
	store    *expstore.Store
	started  time.Time
	draining atomic.Bool

	requestTimeout time.Duration
	maxBacklog     int
	backlog        atomic.Int64
	// guard keys the guards forecasts replay, built once so a warm
	// forecast formats no config.
	guard expstore.GuardSpec

	// breakers is a fixed class → breaker map, built once in New and
	// read-only afterwards (each breaker has its own lock).
	breakers map[string]*breaker

	// metrics is a fixed endpoint-name → counters map, built once in New
	// and read-only afterwards.
	metrics map[string]*endpointMetrics

	// stale is the last-good forecast per tuple, served flagged
	// degraded+stale while the forecast breaker is open. It deliberately
	// survives Reset — it is the degraded-mode safety net, not a cache
	// of record — and is bounded at staleCap entries.
	staleMu sync.Mutex
	stale   map[staleKey]*ForecastResult
}

// New validates the configuration and builds the service.
func New(cfg Config) (*Service, error) {
	if err := cfg.Exp.Validate(); err != nil {
		return nil, err
	}
	maxBacklog := cfg.MaxBacklog
	switch {
	case maxBacklog == 0:
		maxBacklog = DefaultMaxBacklog
	case maxBacklog < 0:
		maxBacklog = 0 // disabled
	}
	threshold := cfg.BreakerThreshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	guardCfg := cfg.Guard
	if guardCfg == (guard.Config{}) {
		guardCfg = guard.DefaultConfig()
	}
	if err := guardCfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:            cfg.Exp,
		store:          cfg.Exp.Store,
		started:        time.Now(),
		requestTimeout: cfg.RequestTimeout,
		maxBacklog:     maxBacklog,
		guard:          expstore.NewGuardSpec(guardCfg),
		breakers: map[string]*breaker{
			classForecast: newBreaker(threshold, cooldown),
			classGrid:     newBreaker(threshold, cooldown),
		},
		stale:   make(map[staleKey]*ForecastResult),
		metrics: make(map[string]*endpointMetrics),
	}
	for _, ep := range endpointNames {
		s.metrics[ep] = &endpointMetrics{}
	}
	return s, nil
}

// Config returns the experiment configuration the service serves.
func (s *Service) Config() experiments.Config { return s.cfg }

// Store exposes the underlying experiment store (tests and the bench
// harness read its counters).
func (s *Service) Store() *expstore.Store { return s.store }

// BeginDrain flips the service into drain mode: every endpoint except
// /healthz rejects new requests with 503, and Forecast, Grid and Tune
// return ErrDraining, while in-flight ones complete.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Close blocks until every started store computation has finished. Call
// after BeginDrain, once the HTTP server has stopped accepting
// connections.
func (s *Service) Close() { s.store.Wait() }

// badRequestError marks errors caused by the request, mapped to 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

// badf builds a badRequestError.
func badf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err is a client error (bad parameters,
// unknown site, invalid slotting) rather than a server failure.
func IsBadRequest(err error) bool {
	var b badRequestError
	return errors.As(err, &b) || errors.Is(err, timeseries.ErrSlotting)
}

// checkSiteN validates the request's (site, n) against the dataset.
func (s *Service) checkSiteN(site string, n int) error {
	if site == "" {
		return badf("missing site")
	}
	if _, err := dataset.SiteByName(site); err != nil {
		return badf("%v", err)
	}
	if n < 2 {
		return badf("n=%d: need at least 2 slots per day", n)
	}
	return nil
}

// --- Forecast ---------------------------------------------------------------

// Params is the JSON form of core.Params.
type Params struct {
	Alpha float64 `json:"alpha"`
	D     int     `json:"d"`
	K     int     `json:"k"`
}

// ForecastResult is the /v1/forecast response: the predicted power at
// the start of each of the next Horizon slots.
type ForecastResult struct {
	Site        string    `json:"site"`
	N           int       `json:"n"`
	SlotMinutes int       `json:"slot_minutes"`
	Params      Params    `json:"params"`
	HistoryDays int       `json:"history_days"`
	NextSlot    int       `json:"next_slot"`
	Horizon     int       `json:"horizon"`
	Watts       []float64 `json:"watts"`
	// Degraded marks a forecast that did not come from the healthy
	// predictor path: the guard fell back to the μD climatology, or the
	// breaker served a stale result.
	Degraded bool `json:"degraded,omitempty"`
	// Stale marks a last-good cached forecast served while the forecast
	// breaker is open.
	Stale bool `json:"stale,omitempty"`
	// Quality is the guard's input-quality score for the tuple in [0,1].
	Quality float64 `json:"quality"`
}

// Forecast serves the next horizon slot forecasts for a site at sampling
// rate n under the given predictor parameters, replaying the guarded
// predictor over the site's cached slot view on first use and reusing
// the published read-only guard afterwards. While the forecast breaker
// is open, the last-good result for the tuple is served flagged
// degraded+stale if one exists.
func (s *Service) Forecast(ctx context.Context, site string, n, horizon int, params core.Params) (*ForecastResult, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := s.checkSiteN(site, n); err != nil {
		return nil, err
	}
	if horizon < 1 || horizon > n {
		return nil, badf("horizon=%d out of [1,%d]", horizon, n)
	}
	if err := params.Validate(); err != nil {
		return nil, badf("%v", err)
	}
	if params.K > n {
		return nil, badf("k=%d exceeds n=%d", params.K, n)
	}
	key := s.forecastKey(site, n, horizon, params)
	br := s.breakers[classForecast]
	if ok, retry := br.allow(); !ok {
		if res := s.staleFor(key); res != nil {
			return res, nil
		}
		return nil, &RetryableError{Err: ErrBreakerOpen, RetryAfter: retry}
	}
	res, err := s.forecast(ctx, site, n, horizon, params)
	resolveBreaker(br, err)
	if err != nil {
		return nil, err
	}
	s.keepStale(key, res)
	return res, nil
}

// forecast is the breaker-guarded body of Forecast.
func (s *Service) forecast(ctx context.Context, site string, n, horizon int, params core.Params) (*ForecastResult, error) {
	g, err := s.store.Guard(ctx, site, s.cfg.Days, n, params, s.guard)
	if err != nil {
		return nil, err
	}
	f, err := g.Forecast(horizon)
	if err != nil {
		return nil, err
	}
	view, err := s.store.View(site, s.cfg.Days, n)
	if err != nil {
		return nil, err
	}
	return &ForecastResult{
		Site:        site,
		N:           n,
		SlotMinutes: view.SlotMinutes,
		Params:      Params{Alpha: params.Alpha, D: params.D, K: params.K},
		HistoryDays: g.Predictor().HistoryDays(),
		NextSlot:    view.TotalSlots() % n,
		Horizon:     horizon,
		Watts:       f.Watts,
		Degraded:    f.Degraded,
		Quality:     f.Quality,
	}, nil
}

// staleKey identifies a forecast tuple for the stale cache. α is keyed
// by its bits, so two requests share an entry exactly when their
// parameters are bit-identical.
type staleKey struct {
	site             string
	days, n, horizon int
	alpha            uint64
	d, k             int
}

// forecastKey identifies a forecast tuple for the stale cache.
func (s *Service) forecastKey(site string, n, horizon int, params core.Params) staleKey {
	return staleKey{site: site, days: s.cfg.Days, n: n, horizon: horizon,
		alpha: math.Float64bits(params.Alpha), d: params.D, k: params.K}
}

// staleFor returns a degraded copy of the tuple's last-good forecast.
func (s *Service) staleFor(key staleKey) *ForecastResult {
	s.staleMu.Lock()
	last, ok := s.stale[key]
	s.staleMu.Unlock()
	if !ok {
		return nil
	}
	res := *last // Watts is shared read-only
	res.Degraded = true
	res.Stale = true
	return &res
}

// keepStale records the tuple's last-good forecast for the breaker-open
// fallback. Degraded results are not kept — the fallback must be the
// last *healthy* answer. The cache is bounded: at capacity an arbitrary
// entry is dropped (any last-good answer beats refusing service).
func (s *Service) keepStale(key staleKey, res *ForecastResult) {
	if res.Degraded {
		return
	}
	s.staleMu.Lock()
	if _, ok := s.stale[key]; !ok && len(s.stale) >= staleCap {
		for k := range s.stale {
			delete(s.stale, k)
			break
		}
	}
	s.stale[key] = res
	s.staleMu.Unlock()
}

// --- Grid and tune ----------------------------------------------------------

// CellResult is one evaluated grid point in JSON form.
type CellResult struct {
	Alpha     float64 `json:"alpha"`
	D         int     `json:"d"`
	K         int     `json:"k"`
	MAPE      float64 `json:"mape"`
	RMSE      float64 `json:"rmse"`
	MaxAbsErr float64 `json:"max_abs_err"`
	Samples   int     `json:"samples"`
}

// cellResult converts an optimize cell.
func cellResult(c optimize.Cell) CellResult {
	return CellResult{
		Alpha:     c.Params.Alpha,
		D:         c.Params.D,
		K:         c.Params.K,
		MAPE:      c.Report.MAPE,
		RMSE:      c.Report.RMSE,
		MaxAbsErr: c.Report.MaxAbsErr,
		Samples:   c.Report.Samples,
	}
}

// GridResult is the /v1/grid response: the full evaluated search space
// for one (site, N, space, ref) tuple.
type GridResult struct {
	Site  string       `json:"site"`
	N     int          `json:"n"`
	Ref   string       `json:"ref"`
	Best  CellResult   `json:"best"`
	Cells []CellResult `json:"cells"`
}

// grid runs the store's grid search for the tuple under the grid-class
// breaker.
func (s *Service) grid(ctx context.Context, site string, n int, space optimize.Space, ref optimize.RefKind) (*optimize.SearchResult, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := s.checkSiteN(site, n); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, badf("%v", err)
	}
	for _, d := range space.Ds {
		if d > s.cfg.WarmupDays {
			return nil, badf("space D=%d exceeds warm-up %d", d, s.cfg.WarmupDays)
		}
	}
	br := s.breakers[classGrid]
	if ok, retry := br.allow(); !ok {
		return nil, &RetryableError{Err: ErrBreakerOpen, RetryAfter: retry}
	}
	res, err := s.store.GridContext(ctx, site, s.cfg.Days, n, s.cfg.EvalOptions(), space, ref)
	resolveBreaker(br, err)
	return res, err
}

// Grid serves the full grid-search result for (site, n, space, ref).
func (s *Service) Grid(ctx context.Context, site string, n int, space optimize.Space, ref optimize.RefKind) (*GridResult, error) {
	res, err := s.grid(ctx, site, n, space, ref)
	if err != nil {
		return nil, err
	}
	out := &GridResult{
		Site:  site,
		N:     n,
		Ref:   ref.String(),
		Best:  cellResult(res.Best),
		Cells: make([]CellResult, len(res.Cells)),
	}
	for i, c := range res.Cells {
		out.Cells[i] = cellResult(c)
	}
	return out, nil
}

// TuneResult is the /v1/tune response: the optimum for the tuple, the
// K=2 practical optimum if in the space, and the paper's guideline
// configuration with its penalty versus the optimum.
type TuneResult struct {
	Site      string      `json:"site"`
	N         int         `json:"n"`
	Ref       string      `json:"ref"`
	Best      CellResult  `json:"best"`
	BestAtK2  *CellResult `json:"best_at_k2,omitempty"`
	Guideline CellResult  `json:"guideline"`
	// GuidelinePenalty is guideline MAPE minus optimum MAPE (absolute
	// fractions): what the one-size tuning rule costs on this tuple.
	GuidelinePenalty float64 `json:"guideline_penalty"`
}

// Tune serves the tuning summary for (site, n, space, ref). The grid
// search itself is shared with Grid through the store, so concurrent
// grid and tune queries for one tuple still compute it once.
func (s *Service) Tune(ctx context.Context, site string, n int, space optimize.Space, ref optimize.RefKind) (*TuneResult, error) {
	res, err := s.grid(ctx, site, n, space, ref)
	if err != nil {
		return nil, err
	}
	params := experiments.GuidelineParams(n)
	e, err := s.store.Eval(site, s.cfg.Days, n, s.cfg.EvalOptions())
	if err != nil {
		return nil, err
	}
	rep, err := e.EvaluateOnline(params, ref)
	if err != nil {
		return nil, err
	}
	out := &TuneResult{
		Site: site,
		N:    n,
		Ref:  ref.String(),
		Best: cellResult(res.Best),
		Guideline: cellResult(optimize.Cell{
			Params: params,
			Report: rep,
		}),
		GuidelinePenalty: rep.MAPE - res.Best.Report.MAPE,
	}
	if k2, ok := res.MinForK(2); ok {
		c := cellResult(k2)
		out.BestAtK2 = &c
	}
	return out, nil
}

// --- Stats and admin --------------------------------------------------------

// StatsResult is the /v1/stats response. Batcher carries the store's
// flight counters; it keeps the name (JSON "batcher") the service's
// stats consumers read from before the store took over coalescing.
type StatsResult struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Draining      bool                     `json:"draining"`
	Backlog       int64                    `json:"backlog"`
	MaxBacklog    int                      `json:"max_backlog"`
	Store         expstore.Stats           `json:"store"`
	StoreEntries  int                      `json:"store_entries"`
	Batcher       expstore.FlightStats     `json:"batcher"`
	Breakers      map[string]BreakerStats  `json:"breakers"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// Stats snapshots the service: uptime, admission backlog, store
// counters, flight counters, breaker states and per-endpoint
// latency/throughput/in-flight metrics.
func (s *Service) Stats() StatsResult {
	uptime := time.Since(s.started)
	eps := make(map[string]EndpointStats, len(s.metrics))
	for name, m := range s.metrics {
		eps[name] = m.snapshot(uptime)
	}
	brs := make(map[string]BreakerStats, len(s.breakers))
	for class, b := range s.breakers {
		brs[class] = b.stats()
	}
	return StatsResult{
		UptimeSeconds: uptime.Seconds(),
		Draining:      s.draining.Load(),
		Backlog:       s.backlog.Load(),
		MaxBacklog:    s.maxBacklog,
		Store:         s.store.Stats(),
		StoreEntries:  s.store.Len(),
		Batcher:       s.store.Flights(),
		Breakers:      brs,
		Endpoints:     eps,
	}
}

// Reset is the admin cache flush: it drops the store's entries, the
// published guards among them. Safe under live load — the store's Reset
// is concurrency-safe and readers holding old objects keep them. The
// stale forecast cache deliberately survives (it is the degraded-mode
// safety net for the freshly-cold cache).
func (s *Service) Reset() { s.store.Reset() }
