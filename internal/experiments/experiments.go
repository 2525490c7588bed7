// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section IV). Each driver generates (or accepts) the
// site traces, runs the relevant exploration from internal/optimize or
// internal/mcu, and returns structured rows that cmd tools, examples and
// the bench harness render. Each driver is named after the artefact it
// regenerates (TableII, Fig7, …); cmd/repro runs them all (README.md,
// "Reproducing the paper").
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/expstore"
	"solarpred/internal/metrics"
	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// Config scopes an experiment run. The zero value is not valid; use
// DefaultConfig (full paper scale) or QuickConfig (CI/bench scale).
type Config struct {
	// Sites are the data-set names to evaluate (subset of dataset.SiteNames).
	Sites []string
	// Days is the trace length in days.
	Days int
	// WarmupDays are excluded from scoring (paper: 20).
	WarmupDays int
	// Ns are the sampling rates (slots per day) to evaluate.
	Ns []int
	// Space is the static parameter search space.
	Space optimize.Space
	// Workers bounds the number of concurrent (site, N) evaluations a
	// driver runs; 0 means GOMAXPROCS. Results are ordered by input
	// index regardless of the worker count, so driver output is
	// deterministic for any setting.
	Workers int
	// Store memoises traces, slot views, evaluators and grid-search
	// results across every driver sharing it: each (site, N, space, ref)
	// tuple is grid-searched exactly once per process, slot views derive
	// from the trace through the resolution pyramid, and concurrent
	// workers deduplicate via single flight. It is required; DefaultConfig
	// and QuickConfig each set a fresh one (see NewStore).
	Store *expstore.Store
}

// NewStore builds an experiment store over the dataset generator, with
// the configuration's sampling rates as the resolution-pyramid ladder.
// Hand the same store to every Config of a process (repro-style multi
// driver runs) to share one warm cache.
func NewStore(cfg Config) *expstore.Store {
	return expstore.New(func(site string, days int) (*timeseries.Series, error) {
		s, err := dataset.SiteByName(site)
		if err != nil {
			return nil, err
		}
		return dataset.GenerateDays(s, days)
	}, cfg.Ns)
}

// EvalOptions maps the configuration onto the store's evaluator keying.
// Exported so other store consumers (the prediction service in
// internal/serve) address exactly the evaluator and grid entries the
// drivers warm, instead of forking a second key universe for the same
// tuples.
func (c Config) EvalOptions() expstore.EvalOptions {
	return expstore.EvalOptions{WarmupDays: c.WarmupDays}
}

// workers resolves the configured worker bound.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) on a bounded worker pool.
// Callers write results into index i of a preallocated slice, which keeps
// output ordering deterministic regardless of scheduling. The returned
// error is the lowest-index failure, so error reporting is deterministic
// too.
func parallelFor(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// siteN is one (site, sampling rate) job of a table driver.
type siteN struct {
	site string
	n    int
}

// crossSitesNs enumerates sites × ns in row-major (site-major) order, the
// ordering the paper's tables use.
func crossSitesNs(sites []string, ns []int) []siteN {
	jobs := make([]siteN, 0, len(sites)*len(ns))
	for _, s := range sites {
		for _, n := range ns {
			jobs = append(jobs, siteN{s, n})
		}
	}
	return jobs
}

// DefaultConfig reproduces the paper's full setup: six sites, 365 days,
// days 21–365 scored, N ∈ {288, 96, 72, 48, 24}, exhaustive grid, with a
// fresh experiment store.
func DefaultConfig() Config {
	cfg := Config{
		Sites:      dataset.SiteNames(),
		Days:       365,
		WarmupDays: metrics.DefaultWarmupDays,
		Ns:         []int{288, 96, 72, 48, 24},
		Space:      optimize.DefaultSpace(),
	}
	cfg.Store = NewStore(cfg)
	return cfg
}

// QuickConfig is a reduced configuration for benches and smoke tests:
// fewer days, a thinner grid, and a shorter warm-up (which also caps D),
// with a fresh experiment store.
func QuickConfig() Config {
	cfg := Config{
		Sites:      []string{"SPMD", "NPCS"},
		Days:       60,
		WarmupDays: 12,
		Ns:         []int{96, 48, 24},
		Space: optimize.Space{
			Alphas: []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
			Ds:     []int{2, 5, 8, 12},
			Ks:     []int{1, 2, 3, 6},
		},
	}
	cfg.Store = NewStore(cfg)
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Sites) == 0 {
		return fmt.Errorf("experiments: no sites")
	}
	for _, s := range c.Sites {
		if _, err := dataset.SiteByName(s); err != nil {
			return err
		}
	}
	if c.Days <= c.WarmupDays {
		return fmt.Errorf("experiments: %d days does not exceed %d warm-up days", c.Days, c.WarmupDays)
	}
	if len(c.Ns) == 0 {
		return fmt.Errorf("experiments: no sampling rates")
	}
	if err := c.Space.Validate(); err != nil {
		return err
	}
	for _, d := range c.Space.Ds {
		if d > c.WarmupDays {
			return fmt.Errorf("experiments: space D=%d exceeds warm-up %d", d, c.WarmupDays)
		}
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count %d", c.Workers)
	}
	if c.Store == nil {
		return fmt.Errorf("experiments: no experiment store")
	}
	return nil
}

// Trace returns the store's generated series for a site name at the
// configured length.
func (c Config) Trace(siteName string) (*timeseries.Series, error) {
	return c.Store.Series(siteName, c.Days)
}

// evalFor returns the store's evaluator for a site at sampling rate n,
// together with its slot view.
func (c Config) evalFor(siteName string, n int) (*optimize.Eval, *timeseries.SlotView, error) {
	e, err := c.Store.Eval(siteName, c.Days, n, c.EvalOptions())
	if err != nil {
		return nil, nil, err
	}
	return e, e.View(), nil
}

// gridFor returns the store's grid-search result for (site, n, ref):
// computed once per process and shared by every driver.
func (c Config) gridFor(siteName string, n int, ref optimize.RefKind) (*optimize.SearchResult, error) {
	return c.Store.Grid(siteName, c.Days, n, c.EvalOptions(), c.Space, ref)
}

// Degenerate reports whether sampling rate n equals the site's recording
// resolution, making the slot mean identical to the slot sample (the
// paper's Table III footnote: prediction becomes exact with α=1).
func Degenerate(siteName string, n int) (bool, error) {
	site, err := dataset.SiteByName(siteName)
	if err != nil {
		return false, err
	}
	return timeseries.MinutesPerDay/n == site.ResolutionMinutes, nil
}

// --- Table II -------------------------------------------------------------

// TableIIRow is one row of the paper's Table II: the optimised parameters
// and error under MAPE′ and under MAPE at N=48.
type TableIIRow struct {
	Site       string
	PrimeBest  optimize.Cell // optimised under MAPE′ (Eq. 6 reference)
	MeanBest   optimize.Cell // optimised under MAPE (Eq. 7 reference)
	PrimeError float64       // MAPE′ of PrimeBest (fraction)
	MeanError  float64       // MAPE of MeanBest (fraction)
}

// TableII runs the dual-cost-function optimisation of the paper's
// Table II at the given sampling rate (the paper uses N=48). Sites are
// evaluated concurrently on the configured worker pool; row order is
// always the configured site order.
func TableII(cfg Config, n int) ([]TableIIRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := make([]TableIIRow, len(cfg.Sites))
	err := parallelFor(cfg.workers(), len(cfg.Sites), func(i int) error {
		site := cfg.Sites[i]
		// Fetched only to keep the store counters cmd/repro prints.
		if _, _, err := cfg.evalFor(site, n); err != nil {
			return err
		}
		prime, err := cfg.gridFor(site, n, optimize.RefSlotStart)
		if err != nil {
			return err
		}
		mean, err := cfg.gridFor(site, n, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		rows[i] = TableIIRow{
			Site:       site,
			PrimeBest:  prime.Best,
			MeanBest:   mean.Best,
			PrimeError: prime.Best.Report.MAPE,
			MeanError:  mean.Best.Report.MAPE,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// --- Table III ------------------------------------------------------------

// TableIIIRow is one (site, N) row of the paper's Table III.
type TableIIIRow struct {
	Site string
	N    int
	// Degenerate marks slot length equal to the trace resolution, where
	// α=1 predicts exactly (the paper's "0†" rows).
	Degenerate bool
	Best       optimize.Cell
	// MAPEAtK2 is the minimum error with K pinned to 2 (the paper's last
	// column); NaN when K=2 is outside the space.
	MAPEAtK2 float64
}

// TableIII runs the sampling-rate exploration of the paper's Table III.
// The (site, N) cells are evaluated concurrently on the configured worker
// pool; row order is site-major like the paper's table.
func TableIII(cfg Config) ([]TableIIIRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	jobs := crossSitesNs(cfg.Sites, cfg.Ns)
	rows := make([]TableIIIRow, len(jobs))
	err := parallelFor(cfg.workers(), len(jobs), func(i int) error {
		row, err := tableIIIRow(cfg, jobs[i].site, jobs[i].n)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func tableIIIRow(cfg Config, site string, n int) (TableIIIRow, error) {
	row := TableIIIRow{Site: site, N: n, MAPEAtK2: math.NaN()}
	deg, err := Degenerate(site, n)
	if err != nil {
		return row, err
	}
	row.Degenerate = deg
	if deg {
		// Slot mean equals the slot sample: α=1 gives MAPE = 0 without
		// running the grid (and the paper reports exactly that).
		row.Best = optimize.Cell{Params: core.Params{Alpha: 1, D: cfg.Space.Ds[0], K: 1}}
		row.MAPEAtK2 = 0
		return row, nil
	}
	// Fetched only to keep the store counters cmd/repro prints.
	if _, _, err := cfg.evalFor(site, n); err != nil {
		return row, err
	}
	res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
	if err != nil {
		return row, err
	}
	row.Best = res.Best
	if k2, ok := res.MinForK(2); ok {
		row.MAPEAtK2 = k2.Report.MAPE
	}
	return row, nil
}

// --- Fig. 7 ---------------------------------------------------------------

// Fig7Series is the MAPE-versus-D curve for one site at fixed N.
type Fig7Series struct {
	Site   string
	Ds     []int
	MAPEs  []float64
	K      int
	Alphas []float64
}

// Fig7 regenerates the paper's Fig. 7: MAPE at N=48 versus D for every
// site, with α swept and K fixed to the site's Table III optimum (the
// paper plots at the optimised α/K). The curve is read straight out of
// the grid-search cells — the exhaustive search already evaluated every
// (α, D) at the optimal K — and sites run concurrently on the configured
// worker pool.
func Fig7(cfg Config, n int) ([]Fig7Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]Fig7Series, len(cfg.Sites))
	err := parallelFor(cfg.workers(), len(cfg.Sites), func(i int) error {
		site := cfg.Sites[i]
		// Fetched only to keep the store counters cmd/repro prints.
		if _, _, err := cfg.evalFor(site, n); err != nil {
			return err
		}
		res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		k := res.Best.Params.K
		curve, ok := res.CurveOverD(cfg.Space.Ds, k)
		if !ok {
			return fmt.Errorf("experiments: %s N=%d: grid cells missing K=%d", site, n, k)
		}
		out[i] = Fig7Series{
			Site:   site,
			Ds:     cfg.Space.Ds,
			MAPEs:  curve,
			K:      k,
			Alphas: cfg.Space.Alphas,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Table V --------------------------------------------------------------

// TableVRow is one (site, N) row of the paper's Table V.
type TableVRow struct {
	Site string
	N    int
	// Degenerate mirrors Table III's exact rows (errors are all zero).
	Degenerate bool
	Static     float64
	Both       float64
	KOnly      float64
	KOnlyAlpha float64
	AlphaOnly  float64
	AlphaOnlyK int
}

// TableV runs the clairvoyant dynamic-parameter study (paper Table V)
// for the configured sites and sampling rates. The paper's table covers
// four sites; pass cfg.Sites accordingly to match it exactly.
func TableV(cfg Config) ([]TableVRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid := core.DynamicGrid{Alphas: cfg.Space.Alphas, Ks: cfg.Space.Ks}
	jobs := crossSitesNs(cfg.Sites, cfg.Ns)
	rows := make([]TableVRow, len(jobs))
	err := parallelFor(cfg.workers(), len(jobs), func(i int) error {
		site, n := jobs[i].site, jobs[i].n
		row := TableVRow{Site: site, N: n}
		deg, err := Degenerate(site, n)
		if err != nil {
			return err
		}
		if deg {
			row.Degenerate = true
			row.KOnlyAlpha = 1
			rows[i] = row
			return nil
		}
		e, _, err := cfg.evalFor(site, n)
		if err != nil {
			return err
		}
		res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		dyn, err := e.DynamicEval(res.Best.Params.D, grid, res.Best, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		if err := dyn.Check(); err != nil {
			return fmt.Errorf("experiments: %s N=%d: %w", site, n, err)
		}
		row.Static = dyn.StaticMAPE
		row.Both = dyn.BothMAPE
		row.KOnly = dyn.KOnlyMAPE
		row.KOnlyAlpha = dyn.KOnlyAlpha
		row.AlphaOnly = dyn.AlphaOnlyMAPE
		row.AlphaOnlyK = dyn.AlphaOnlyK
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// --- Fig. 2 ---------------------------------------------------------------

// Fig2Data is a multi-day excerpt of a trace for the variability figure.
type Fig2Data struct {
	Site    string
	Days    []int // zero-based day indices chosen
	Samples []float64
	PerDay  int
}

// Fig2 extracts n visually varied days (by daily energy) from a site's
// trace at 5-minute resolution, like the paper's Fig. 2 (six days of
// 5-minute samples).
func Fig2(cfg Config, site string, nDays int) (*Fig2Data, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	series, err := cfg.Trace(site)
	if err != nil {
		return nil, err
	}
	if series.ResolutionMinutes != 5 {
		series, err = series.Resample(5)
		if err != nil {
			return nil, err
		}
	}
	days, err := dataset.PickVariedDays(series, cfg.WarmupDays, series.Days(), nDays)
	if err != nil {
		return nil, err
	}
	perDay := series.SamplesPerDay()
	data := &Fig2Data{Site: site, Days: days, PerDay: perDay}
	for _, d := range days {
		day, err := series.Day(d)
		if err != nil {
			return nil, err
		}
		data.Samples = append(data.Samples, day...)
	}
	return data, nil
}

// --- Guidelines (Section IV-B) ---------------------------------------------

// Guideline summarises the parameter-tuning guidance the paper derives:
// for each site, how far the guideline configuration (D=10, K=2, α by N)
// lands from the per-site optimum.
type Guideline struct {
	Site          string
	N             int
	OptimumMAPE   float64
	GuidelineMAPE float64
	// Penalty is GuidelineMAPE − OptimumMAPE (absolute MAPE fractions).
	Penalty float64
}

// GuidelineAlpha returns the paper's suggested α for a sampling rate:
// 0.5–0.6 at N=24, 0.7–0.8 mid-range, →1 at N=288.
func GuidelineAlpha(n int) float64 {
	switch {
	case n >= 288:
		return 0.9
	case n >= 48:
		return 0.7
	case n >= 24:
		return 0.6
	default:
		return 0.5
	}
}

// GuidelineParams returns the paper's suggested static configuration for
// a sampling rate: D=10, K=2, α per GuidelineAlpha.
func GuidelineParams(n int) core.Params {
	return core.Params{Alpha: GuidelineAlpha(n), D: 10, K: 2}
}

// Guidelines quantifies the cost of the simplified tuning rules versus
// the exhaustive optimum at sampling rate n for each site.
func Guidelines(cfg Config, n int) ([]Guideline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := GuidelineParams(n)
	if params.D > cfg.WarmupDays {
		return nil, fmt.Errorf("experiments: guideline D=%d exceeds warm-up %d", params.D, cfg.WarmupDays)
	}
	out := make([]Guideline, len(cfg.Sites))
	err := parallelFor(cfg.workers(), len(cfg.Sites), func(i int) error {
		site := cfg.Sites[i]
		e, _, err := cfg.evalFor(site, n)
		if err != nil {
			return err
		}
		res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		rep, err := e.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		out[i] = Guideline{
			Site:          site,
			N:             n,
			OptimumMAPE:   res.Best.Report.MAPE,
			GuidelineMAPE: rep.MAPE,
			Penalty:       rep.MAPE - res.Best.Report.MAPE,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Baseline comparison (extension) ---------------------------------------

// BaselineRow compares WCMA against the EWMA [2], persistence and
// previous-day baselines on one site (an extension in the spirit of the
// paper's related-work comparison [7]).
type BaselineRow struct {
	Site        string
	N           int
	WCMA        float64
	EWMA        float64
	EWMABeta    float64
	Persistence float64
	PreviousDay float64
	// SlotAR is the per-slot profile + AR(1)-deviation baseline
	// (core.SlotAR) at its default hyper-parameters.
	SlotAR float64
}

// Baselines evaluates the baseline predictors at sampling rate n,
// sweeping the EWMA smoothing factor over betas and reporting its best.
func Baselines(cfg Config, n int, betas []float64) ([]BaselineRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(betas) == 0 {
		return nil, fmt.Errorf("experiments: no EWMA betas")
	}
	rows := make([]BaselineRow, len(cfg.Sites))
	err := parallelFor(cfg.workers(), len(cfg.Sites), func(i int) error {
		site := cfg.Sites[i]
		e, _, err := cfg.evalFor(site, n)
		if err != nil {
			return err
		}
		res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		row := BaselineRow{Site: site, N: n, WCMA: res.Best.Report.MAPE, EWMA: math.Inf(1)}
		for _, beta := range betas {
			ew, err := core.NewEWMA(n, beta)
			if err != nil {
				return err
			}
			rep, err := e.EvaluateBaseline(ew, optimize.RefSlotMean)
			if err != nil {
				return err
			}
			if rep.MAPE < row.EWMA {
				row.EWMA = rep.MAPE
				row.EWMABeta = beta
			}
		}
		pers, err := core.NewPersistence(n)
		if err != nil {
			return err
		}
		rep, err := e.EvaluateBaseline(pers, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		row.Persistence = rep.MAPE
		prev, err := core.NewPreviousDay(n)
		if err != nil {
			return err
		}
		rep, err = e.EvaluateBaseline(prev, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		row.PreviousDay = rep.MAPE
		ar, err := core.NewSlotAR(n, 0.3, 0.995)
		if err != nil {
			return err
		}
		rep, err = e.EvaluateBaseline(ar, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		row.SlotAR = rep.MAPE
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
