// Benchmarks regenerating every table and figure of the paper (each bench
// is named after its artefact), plus ablation benches and
// micro-benchmarks of the hot paths.
//
// Table/figure benches run the experiment drivers at the reduced
// QuickConfig scale so `go test -bench=.` completes in seconds; the key
// result of each artefact is attached to the bench output via
// b.ReportMetric (MAPE in percent, energy in µJ, …). Run `cmd/repro` for
// the full paper-scale tables.
package solarpred_test

import (
	"math"
	"testing"

	"solarpred"
	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/faults"
	"solarpred/internal/mcu"
	"solarpred/internal/metrics"
	"solarpred/internal/optimize"
	"solarpred/internal/solar"
	"solarpred/internal/timeseries"
)

// quickCfg is the shared reduced configuration for the table benches.
func quickCfg() experiments.Config { return experiments.QuickConfig() }

// fresh returns cfg on a new, empty experiment store, so every iteration
// of a table bench times the whole pipeline, trace generation included,
// rather than cache hits.
func fresh(cfg experiments.Config) experiments.Config {
	cfg.Store = experiments.NewStore(cfg)
	return cfg
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTableI(b *testing.B) {
	var rows []dataset.TableIRow
	for i := 0; i < b.N; i++ {
		rows = dataset.TableI()
	}
	if len(rows) != 6 {
		b.Fatal("Table I must have six sites")
	}
	b.ReportMetric(float64(rows[2].Observations), "observations")
}

// --- Fig. 2 ----------------------------------------------------------------

func BenchmarkFig2(b *testing.B) {
	cfg := quickCfg()
	var data *experiments.Fig2Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = experiments.Fig2(fresh(cfg), "SPMD", 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data.Samples)), "samples")
}

// --- Table II ---------------------------------------------------------------

func BenchmarkTableII(b *testing.B) {
	cfg := quickCfg()
	var rows []experiments.TableIIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableII(fresh(cfg), 48)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.MeanError >= r.PrimeError {
			b.Fatalf("%s: MAPE %.4f not below MAPE' %.4f — paper shape violated",
				r.Site, r.MeanError, r.PrimeError)
		}
	}
	b.ReportMetric(rows[0].MeanError*100, "MAPE%")
	b.ReportMetric(rows[0].PrimeError*100, "MAPE'%")
}

// --- Table III ---------------------------------------------------------------

func BenchmarkTableIII(b *testing.B) {
	cfg := quickCfg()
	var rows []experiments.TableIIIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIII(fresh(cfg))
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the N=96 and N=24 errors of the first site: the headline
	// trend is the gap between them.
	var hi, lo float64
	for _, r := range rows {
		if r.Site == cfg.Sites[0] && r.N == 96 {
			hi = r.Best.Report.MAPE
		}
		if r.Site == cfg.Sites[0] && r.N == 24 {
			lo = r.Best.Report.MAPE
		}
	}
	b.ReportMetric(hi*100, "MAPE@N96%")
	b.ReportMetric(lo*100, "MAPE@N24%")
}

// --- Table IV ---------------------------------------------------------------

func BenchmarkTableIV(b *testing.B) {
	var rows []mcu.TableIVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mcu.TableIV(mcu.SoftFloat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].EnergyJ*1e6, "ADC-uJ")
	b.ReportMetric((rows[1].EnergyJ-rows[0].EnergyJ)*1e6, "predK1-uJ")
	b.ReportMetric((rows[2].EnergyJ-rows[0].EnergyJ)*1e6, "predK7-uJ")
}

// --- Fig. 5 ----------------------------------------------------------------

func BenchmarkFig5StateMachine(b *testing.B) {
	params := core.Params{Alpha: 0.7, D: 20, K: 2}
	var tl *mcu.Timeline
	for i := 0; i < b.N; i++ {
		var err error
		tl, err = mcu.Simulate(48, params, mcu.SoftFloat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tl.TotalEnergyJ()*1e3, "day-mJ")
}

// --- Fig. 6 ----------------------------------------------------------------

func BenchmarkFig6(b *testing.B) {
	var fractions []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, fractions, err = mcu.Fig6(mcu.SoftFloat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fractions[0]*100, "overhead@288%")
	b.ReportMetric(fractions[4]*100, "overhead@24%")
}

// --- Fig. 7 ----------------------------------------------------------------

func BenchmarkFig7(b *testing.B) {
	cfg := quickCfg()
	var series []experiments.Fig7Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig7(fresh(cfg), 48)
		if err != nil {
			b.Fatal(err)
		}
	}
	first := series[0].MAPEs
	b.ReportMetric(first[0]*100, "MAPE@Dmin%")
	b.ReportMetric(first[len(first)-1]*100, "MAPE@Dmax%")
}

// --- Table V ---------------------------------------------------------------

func BenchmarkTableV(b *testing.B) {
	cfg := quickCfg()
	var rows []experiments.TableVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableV(fresh(cfg))
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	if !r.Degenerate && r.Both >= r.Static {
		b.Fatal("dynamic must beat static")
	}
	b.ReportMetric(r.Static*100, "static%")
	b.ReportMetric(r.Both*100, "dynamic%")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationFixedPoint compares the float64 predictor and the
// Q16.16 kernel numerically and reports the accuracy cost of fixed point
// alongside its cycle savings.
func BenchmarkAblationFixedPoint(b *testing.B) {
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	view := benchView(b, "SPMD", 40, 48)
	var worst float64
	for i := 0; i < b.N; i++ {
		kern, err := mcu.NewKernel(48, params)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := core.New(48, params)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for t := 0; t < view.TotalSlots(); t++ {
			v := view.Start[t]
			if v >= 32768 {
				v = 32767
			}
			if err := kern.Observe(t%48, v); err != nil {
				b.Fatal(err)
			}
			if err := ref.Observe(t%48, v); err != nil {
				b.Fatal(err)
			}
			pq, err := kern.Predict()
			if err != nil {
				b.Fatal(err)
			}
			pf, err := ref.Predict()
			if err != nil {
				b.Fatal(err)
			}
			if d := math.Abs(pq-pf) / (1 + pf); d > worst {
				worst = d
			}
		}
	}
	c := mcu.TypicalPredictionCounter(params)
	b.ReportMetric(worst*100, "worst-dev%")
	b.ReportMetric(float64(c.Cycles(mcu.SoftFloat))/float64(c.Cycles(mcu.FixedQ16)), "cycle-ratio")
}

// BenchmarkAblationEvaluator times the vectorized fast path against the
// online predictor loop on identical work and verifies they agree.
func BenchmarkAblationEvaluator(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.EvaluateOnline(params, optimize.RefSlotMean); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean); err != nil {
				b.Fatal(err)
			}
		}
	})
	on, err := e.EvaluateOnline(params, optimize.RefSlotMean)
	if err != nil {
		b.Fatal(err)
	}
	fast, err := e.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean)
	if err != nil {
		b.Fatal(err)
	}
	if math.Abs(on.MAPE-fast[0].MAPE) > 1e-9 {
		b.Fatal("evaluator paths disagree")
	}
}

// BenchmarkAblationPhiFallback measures what the η clamp is worth: MAPE
// with the default clamp versus unbounded ratios.
func BenchmarkAblationPhiFallback(b *testing.B) {
	view := benchView(b, "SPMD", 60, 24)
	params := core.Params{Alpha: 0.6, D: 12, K: 2}
	clamped, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	unclamped, err := optimize.NewEval(view, optimize.WithWarmupDays(15), optimize.WithEtaMax(math.Inf(1)))
	if err != nil {
		b.Fatal(err)
	}
	var mc, mu float64
	for i := 0; i < b.N; i++ {
		rc, err := clamped.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		ru, err := unclamped.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		mc, mu = rc[0].MAPE, ru[0].MAPE
	}
	if mu < mc {
		b.Log("note: unclamped beat clamped on this trace")
	}
	b.ReportMetric(mc*100, "clamped%")
	b.ReportMetric(mu*100, "unclamped%")
}

// BenchmarkAblationObservation feeds the predictor slot means instead of
// slot-start samples — the measurement-design alternative of Fig. 4.
func BenchmarkAblationObservation(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	meanView := &timeseries.SlotView{
		N: view.N, M: view.M, DaysCount: view.DaysCount,
		Start: view.Mean, Mean: view.Mean, SlotMinutes: view.SlotMinutes,
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	var fromStarts, fromMeans float64
	for i := 0; i < b.N; i++ {
		e1, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
		if err != nil {
			b.Fatal(err)
		}
		e2, err := optimize.NewEval(meanView, optimize.WithWarmupDays(15))
		if err != nil {
			b.Fatal(err)
		}
		r1, err := e1.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := e2.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		fromStarts, fromMeans = r1.MAPE, r2.MAPE
	}
	b.ReportMetric(fromStarts*100, "from-samples%")
	b.ReportMetric(fromMeans*100, "from-means%")
}

// BenchmarkBaselineEWMA compares WCMA to the Kansal EWMA baseline.
func BenchmarkBaselineEWMA(b *testing.B) {
	cfg := quickCfg()
	var rows []experiments.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Baselines(fresh(cfg), 24, []float64{0.3, 0.5, 0.7})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].WCMA*100, "WCMA%")
	b.ReportMetric(rows[0].EWMA*100, "EWMA%")
}

// --- Table VI (extension): realizable online parameter selection -------------

func BenchmarkTableVI(b *testing.B) {
	cfg := quickCfg()
	cfg.Ns = []int{24}
	var rows []experiments.TableVIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableVI(fresh(cfg))
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.Static*100, "static%")
	b.ReportMetric(r.Oracle*100, "oracle%")
	b.ReportMetric(r.Policies[0].Report.MAPE*100, "ftl%")
}

// --- Robustness (extension): sensor fault injection ---------------------------

func BenchmarkRobustness(b *testing.B) {
	cfg := quickCfg()
	cfg.Sites = []string{"NPCS"}
	var rows []experiments.RobustnessRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Robustness(fresh(cfg), 48)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst float64
	for _, r := range rows {
		if d := r.DegradationPoints(); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst*100, "worst-degradation-pp")
}

// --- Memory design table (extension) ------------------------------------------

func BenchmarkMemoryTable(b *testing.B) {
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	var rows []mcu.MemoryTableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mcu.MemoryTable(params)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].MaxDAtThisN), "maxD@288")
	b.ReportMetric(float64(rows[3].MaxDAtThisN), "maxD@48")
}

// --- Micro-benchmarks --------------------------------------------------------

func benchView(b *testing.B, siteName string, days, n int) *timeseries.SlotView {
	b.Helper()
	site, err := dataset.SiteByName(siteName)
	if err != nil {
		b.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, days)
	if err != nil {
		b.Fatal(err)
	}
	view, err := series.Slot(n)
	if err != nil {
		b.Fatal(err)
	}
	return view
}

func BenchmarkPredictorObservePredict(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	p, err := solarpred.NewPredictor(48, solarpred.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			// restart cleanly at trace end to keep slots in order
			p.Reset()
		}
		if err := p.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPredictFixedPoint(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	k, err := mcu.NewKernel(48, core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			b.StopTimer()
			k, err = mcu.NewKernel(48, core.Params{Alpha: 0.7, D: 10, K: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := k.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateOnline times one full online evaluation pass (the
// reference path the vectorized engine is validated against). The
// reported allocations are the constant per-call setup (predictor +
// accumulator); the per-prediction loop itself is allocation-free, which
// BenchmarkOnlinePredictionStep pins down.
func BenchmarkEvaluateOnline(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateOnline(params, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePredictionStep measures exactly one iteration of the
// EvaluateOnline inner loop — Observe, Predict, score — and must report
// 0 B/op: the acceptance bar for the evaluation engine is zero
// allocations per prediction.
func BenchmarkOnlinePredictionStep(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	p, err := core.New(48, core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := metrics.NewAccumulator(0.1 * view.PeakMean())
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			p.Reset()
		}
		if err := p.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		pred, err := p.Predict()
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(pred, view.Mean[t])
	}
}

func BenchmarkSweepAlpha(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	alphas := optimize.DefaultSpace().Alphas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SweepAlpha(10, 3, alphas, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSearch(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	space := optimize.Space{
		Alphas: optimize.DefaultSpace().Alphas,
		Ds:     []int{2, 5, 10, 15},
		Ks:     []int{1, 2, 3, 6},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.GridSearch(space, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	site, err := dataset.SiteByName("ORNL")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateDays(site, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolarPosition(b *testing.B) {
	site := solar.Site{LatitudeDeg: 39.74, LongitudeDeg: -105.18, TimezoneHours: -7}
	var el float64
	for i := 0; i < b.N; i++ {
		pos := solar.PositionAt(site, 1+i%365, float64(i%1440))
		el = pos.Elevation
	}
	_ = el
}

// BenchmarkClearSkyDay times one day of the clear-sky envelope at
// 1-minute resolution for a mid-latitude site, the per-day kernel of
// trace generation.
func BenchmarkClearSkyDay(b *testing.B) {
	site := solar.Site{LatitudeDeg: 39.74, LongitudeDeg: -105.18, TimezoneHours: -7}
	out := make([]float64, 1440)
	for i := 0; i < b.N; i++ {
		if err := solar.ClearSkyDay(site, 1+i%365, 1, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptiveSelectorUpdate(b *testing.B) {
	cands, err := adaptive.Grid(optimize.DefaultSpace().Alphas, []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := adaptive.NewDiscounted(len(cands), 0.998)
	if err != nil {
		b.Fatal(err)
	}
	losses := make([]float64, len(cands))
	for i := range losses {
		losses[i] = float64(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sel.Choose()
		sel.Update(losses)
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	site, err := dataset.SiteByName("NPCS")
	if err != nil {
		b.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, 30)
	if err != nil {
		b.Fatal(err)
	}
	cfg := faults.Config{Kind: faults.Dropout, Rate: 0.01, MeanLen: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := faults.Inject(series, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHarvestSimulation(b *testing.B) {
	view := benchView(b, "HSU", 30, 48)
	cfg := solarpred.DefaultNodeConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := solarpred.NewPredictor(48, solarpred.Params{Alpha: 0.7, D: 10, K: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solarpred.SimulateNode(cfg, view, pred); err != nil {
			b.Fatal(err)
		}
	}
}
