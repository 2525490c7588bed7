// Command repro regenerates every table and figure of the paper in one
// run: Table I (data sets), Fig. 2 (trace variability), Table II (error
// functions), Table III (sampling rates), Table IV and Fig. 6 (hardware
// energy and overhead), Fig. 7 (MAPE versus D) and Table V (dynamic
// parameters). It then prints the extensions: guidelines and baselines,
// the fixed-point ablation, accuracy versus computation, Table VI
// (realizable online selection), error by weather type, sensor-fault
// robustness, the seasonal profile and the predictor RAM table. README's
// "Artefact map" maps each section to its driver, golden file and
// perfbench metric.
//
// Usage:
//
//	repro            # full paper scale (about 1.2 s on 2 vCPUs)
//	repro -quick     # reduced scale, well under a second
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/mcu"
	"solarpred/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced configuration")
	workers := flag.Int("workers", 0, "concurrent (site, N) evaluations within each driver, the drivers themselves overlapping (0 = GOMAXPROCS)")
	flag.Parse()

	// Stdout stays unbuffered so each section appears as soon as its
	// result is ready.
	if err := run(os.Stdout, newConfig(*quick, *workers), *quick); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// newConfig returns the paper-scale or quick configuration with one
// experiment store serving every driver of the run: each (site, N, space,
// ref) tuple is grid-searched exactly once, and every later table or
// figure that needs it reads the cached result.
func newConfig(quick bool, workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	if quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Workers = workers
	return cfg
}

func section(w io.Writer, name string) func() {
	t0 := time.Now()
	fmt.Fprintf(w, "==== %s ====\n\n", name)
	return func() { fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(t0).Seconds()) }
}

// future is the result of a computation started by start.
type future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// start runs fn on its own goroutine, counted in wg, and returns at once.
func start[T any](wg *sync.WaitGroup, fn func() (T, error)) *future[T] {
	f := &future[T]{done: make(chan struct{})}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(f.done)
		f.val, f.err = fn()
	}()
	return f
}

// get waits for fn's result.
func (f *future[T]) get() (T, error) {
	<-f.done
	return f.val, f.err
}

// run writes the whole reproduction to w. Once the header line is out,
// every driver starts on its own goroutine, all sharing cfg.Store, whose
// single flight computes each tuple once however the drivers interleave;
// the sections are then printed in order, each as soon as its result is
// ready, so a section's "(N.Ns)" line times the wait for its result, not
// its compute time. run returns only after every driver it started has
// finished, and on failure returns the error of the first failing
// section in print order.
func run(w io.Writer, cfg experiments.Config, quick bool) error {
	fmt.Fprintf(w, "solarpred paper reproduction — sites %v, %d days, warm-up %d\n\n",
		cfg.Sites, cfg.Days, cfg.WarmupDays)

	var wg sync.WaitGroup
	defer wg.Wait()
	n48 := 48
	guideline := experiments.GuidelineParams(n48)
	vCfg, viCfg, oneSite := cfg, cfg, cfg
	if !quick {
		subset := []string{"SPMD", "ECSU", "ORNL", "HSU"} // the paper's Table V subset
		vCfg.Sites, viCfg.Sites = subset, subset
		viCfg.Ns = []int{96, 48, 24}
	}
	oneSite.Sites = cfg.Sites[:1]
	fig2F := start(&wg, func() (*experiments.Fig2Data, error) { return experiments.Fig2(cfg, cfg.Sites[0], 6) })
	rows2F := start(&wg, func() ([]experiments.TableIIRow, error) { return experiments.TableII(cfg, n48) })
	rows3F := start(&wg, func() ([]experiments.TableIIIRow, error) { return experiments.TableIII(cfg) })
	fig7F := start(&wg, func() ([]experiments.Fig7Series, error) { return experiments.Fig7(cfg, n48) })
	rows5F := start(&wg, func() ([]experiments.TableVRow, error) { return experiments.TableV(vCfg) })
	guidelinesF := start(&wg, func() ([]experiments.Guideline, error) { return experiments.Guidelines(cfg, n48) })
	baselinesF := start(&wg, func() ([]experiments.BaselineRow, error) {
		return experiments.Baselines(cfg, n48, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	})
	oneSiteF := start(&wg, func() ([]experiments.BaselineRow, error) {
		return experiments.Baselines(oneSite, n48, []float64{0.1, 0.3, 0.5})
	})
	rows6F := start(&wg, func() ([]experiments.TableVIRow, error) { return experiments.TableVI(viCfg) })
	dayTypeF := make([]*future[*experiments.DayTypeError], len(cfg.Sites))
	for i, site := range cfg.Sites {
		dayTypeF[i] = start(&wg, func() (*experiments.DayTypeError, error) {
			return experiments.ErrorByDayType(cfg, site, n48, guideline)
		})
	}
	robustF := start(&wg, func() ([]experiments.RobustnessRow, error) { return experiments.Robustness(cfg, n48) })
	seasonalF := make([]*future[[]experiments.MonthError], len(cfg.Sites))
	for i, site := range cfg.Sites {
		seasonalF[i] = start(&wg, func() ([]experiments.MonthError, error) {
			return experiments.Seasonal(cfg, site, n48, guideline)
		})
	}

	// Table I.
	done := section(w, "Table I: data sets")
	t1 := report.NewTable("", "Data Set", "Location", "Observations", "Days", "Resolution")
	for _, r := range dataset.TableI() {
		t1.AddRow(r.Name, r.Location, strconv.Itoa(r.Observations), strconv.Itoa(r.Days), r.Resolution)
	}
	fmt.Fprintln(w, t1.String())
	done()

	// Fig. 2.
	done = section(w, "Fig. 2: six days of solar energy (SPMD-like trace)")
	fig2, err := fig2F.get()
	if err != nil {
		return err
	}
	chart := report.NewChart(fmt.Sprintf("%s days %v (5-minute samples)", fig2.Site, fig2.Days), 72, 10)
	chart.Add("power", '*', fig2.Samples)
	fmt.Fprintln(w, chart.String())
	done()

	// Table II.
	done = section(w, "Table II: error-function comparison at N=48")
	rows2, err := rows2F.get()
	if err != nil {
		return err
	}
	t2 := report.NewTable("", "Data set", "a'", "D'", "K'", "MAPE'", "a", "D", "K", "MAPE")
	for _, r := range rows2 {
		t2.AddRow(r.Site,
			fmt.Sprintf("%.1f", r.PrimeBest.Params.Alpha), strconv.Itoa(r.PrimeBest.Params.D),
			strconv.Itoa(r.PrimeBest.Params.K), report.Percent(r.PrimeError),
			fmt.Sprintf("%.1f", r.MeanBest.Params.Alpha), strconv.Itoa(r.MeanBest.Params.D),
			strconv.Itoa(r.MeanBest.Params.K), report.Percent(r.MeanError))
	}
	fmt.Fprintln(w, t2.String())
	done()

	// Table III.
	done = section(w, "Table III: prediction results at different N")
	rows3, err := rows3F.get()
	if err != nil {
		return err
	}
	t3 := report.NewTable("", "Data set", "N", "a", "D", "K", "MAPE", "MAPE@K=2")
	for _, r := range rows3 {
		if r.Degenerate {
			t3.AddRow(r.Site, strconv.Itoa(r.N), "1.0", "n/a", "n/a", "0*", "0*")
			continue
		}
		k2 := "n/a"
		if !math.IsNaN(r.MAPEAtK2) {
			k2 = report.Percent(r.MAPEAtK2)
		}
		t3.AddRow(r.Site, strconv.Itoa(r.N),
			fmt.Sprintf("%.1f", r.Best.Params.Alpha), strconv.Itoa(r.Best.Params.D),
			strconv.Itoa(r.Best.Params.K), report.Percent(r.Best.Report.MAPE), k2)
	}
	fmt.Fprintln(w, t3.String())
	fmt.Fprintln(w, "* slot length equals trace resolution: prediction exact with a=1")
	fmt.Fprintln(w)
	done()

	// Table IV + Fig. 6.
	done = section(w, "Table IV and Fig. 6: hardware energy model (soft-float)")
	rows4, err := mcu.TableIV(mcu.SoftFloat)
	if err != nil {
		return err
	}
	t4 := report.NewTable("", "Hardware Activity", "Energy/Cycle")
	for _, r := range rows4 {
		if r.PerDay {
			t4.AddRow(r.Activity, fmt.Sprintf("%.2f mJ per day", r.EnergyJ*1e3))
		} else {
			t4.AddRow(r.Activity, fmt.Sprintf("%.1f uJ", r.EnergyJ*1e6))
		}
	}
	fmt.Fprintln(w, t4.String())
	ns, fractions, err := mcu.Fig6(mcu.SoftFloat)
	if err != nil {
		return err
	}
	labels := make([]string, len(ns))
	vals := make([]float64, len(ns))
	for i := range ns {
		labels[i] = fmt.Sprintf("N=%d", ns[i])
		vals[i] = fractions[i] * 100
	}
	fmt.Fprintln(w, report.Bars("Fig. 6: overhead vs sleep energy", labels, vals, "%", 40))
	done()

	// Fig. 7.
	done = section(w, "Fig. 7: MAPE vs D at N=48")
	series, err := fig7F.get()
	if err != nil {
		return err
	}
	chart7 := report.NewChart("MAPE vs D", 60, 12)
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	for i, s := range series {
		chart7.Add(s.Site, markers[i%len(markers)], s.MAPEs)
	}
	chart7.XLabel = fmt.Sprintf("D = %d .. %d", cfg.Space.Ds[0], cfg.Space.Ds[len(cfg.Space.Ds)-1])
	fmt.Fprintln(w, chart7.String())
	done()

	// Table V.
	done = section(w, "Table V: dynamic parameter selection")
	rows5, err := rows5F.get()
	if err != nil {
		return err
	}
	t5 := report.NewTable("", "Data set", "N", "Static", "K+a", "a(K dyn)", "K only", "K(a dyn)", "a only")
	for _, r := range rows5 {
		if r.Degenerate {
			t5.AddRow(r.Site, strconv.Itoa(r.N), "0.00%", "0.00%", "1.0", "0.00%", "n/a", "0.00%")
			continue
		}
		t5.AddRow(r.Site, strconv.Itoa(r.N),
			report.Percent(r.Static), report.Percent(r.Both),
			fmt.Sprintf("%.1f", r.KOnlyAlpha), report.Percent(r.KOnly),
			strconv.Itoa(r.AlphaOnlyK), report.Percent(r.AlphaOnly))
	}
	fmt.Fprintln(w, t5.String())
	done()

	// Guidelines and baselines (Section IV-B prose, plus extension).
	done = section(w, "Guidelines and baselines at N=48")
	gs, err := guidelinesF.get()
	if err != nil {
		return err
	}
	p := experiments.GuidelineParams(n48)
	tg := report.NewTable(fmt.Sprintf("Guideline a=%.1f D=%d K=%d vs optimum", p.Alpha, p.D, p.K),
		"Data set", "Optimum", "Guideline", "Penalty")
	for _, g := range gs {
		tg.AddRow(g.Site, report.Percent(g.OptimumMAPE), report.Percent(g.GuidelineMAPE),
			fmt.Sprintf("%+.2fpp", g.Penalty*100))
	}
	fmt.Fprintln(w, tg.String())
	bs, err := baselinesF.get()
	if err != nil {
		return err
	}
	tb := report.NewTable("Baselines (MAPE)", "Data set", "WCMA", "EWMA", "b", "Persist", "Prev-day", "SlotAR")
	for _, b := range bs {
		tb.AddRow(b.Site, report.Percent(b.WCMA), report.Percent(b.EWMA),
			fmt.Sprintf("%.1f", b.EWMABeta), report.Percent(b.Persistence), report.Percent(b.PreviousDay),
			report.Percent(b.SlotAR))
	}
	fmt.Fprintln(w, tb.String())
	done()

	// Fixed-point ablation.
	done = section(w, "Ablation: soft-float vs fixed-point prediction cost")
	ta := report.NewTable("", "K", "soft-float", "fixed-q16", "ratio")
	for _, k := range []int{1, 2, 4, 7} {
		pp := core.Params{Alpha: 0.7, D: 20, K: k}
		sf, err := mcu.PredictionEnergyJ(pp, mcu.SoftFloat)
		if err != nil {
			return err
		}
		fx, err := mcu.PredictionEnergyJ(pp, mcu.FixedQ16)
		if err != nil {
			return err
		}
		ta.AddRow(strconv.Itoa(k), fmt.Sprintf("%.2f uJ", sf*1e6),
			fmt.Sprintf("%.2f uJ", fx*1e6), fmt.Sprintf("%.1fx", sf/fx))
	}
	fmt.Fprintln(w, ta.String())
	done()

	// Cross-algorithm accuracy vs computation (the theme of [7]).
	done = section(w, "Extension: accuracy vs computation across algorithms (N=48, SPMD-like site)")
	costs, err := mcu.AlgorithmCosts(core.Params{Alpha: 0.7, D: 10, K: 2}, mcu.SoftFloat)
	if err != nil {
		return err
	}
	bsOne, err := oneSiteF.get()
	if err != nil {
		return err
	}
	mapeOf := map[string]float64{
		"WCMA (K=2)":  bsOne[0].WCMA,
		"SlotAR":      bsOne[0].SlotAR,
		"EWMA":        bsOne[0].EWMA,
		"persistence": bsOne[0].Persistence,
	}
	tc := report.NewTable("", "algorithm", "MAPE", "cycles/prediction", "energy/prediction")
	for _, c := range costs {
		tc.AddRow(c.Name, report.Percent(mapeOf[c.Name]),
			strconv.Itoa(c.Cycles), fmt.Sprintf("%.2f uJ", c.EnergyJ*1e6))
	}
	fmt.Fprintln(w, tc.String())
	done()

	// Table VI: realizable online parameter selection.
	done = section(w, "Table VI (extension): realizable online parameter selection")
	rows6, err := rows6F.get()
	if err != nil {
		return err
	}
	t6 := report.NewTable("", append([]string{"Data set", "N", "Static", "Oracle"}, experiments.PolicyNames()...)...)
	for _, r := range rows6 {
		if r.Degenerate {
			continue
		}
		cells := []string{r.Site, strconv.Itoa(r.N), report.Percent(r.Static), report.Percent(r.Oracle)}
		for _, p := range r.Policies {
			cells = append(cells, report.Percent(p.Report.MAPE))
		}
		t6.AddRow(cells...)
	}
	fmt.Fprintln(w, t6.String())
	done()

	// Error by weather type.
	done = section(w, "Extension: MAPE by realised weather type at N=48")
	tw := report.NewTable("", "Data set", "clear", "partly", "overcast", "mixed")
	for i, site := range cfg.Sites {
		res, err := dayTypeF[i].get()
		if err != nil {
			return err
		}
		tw.AddRow(site,
			report.Percent(res.MAPE[0]), report.Percent(res.MAPE[1]),
			report.Percent(res.MAPE[2]), report.Percent(res.MAPE[3]))
	}
	fmt.Fprintln(w, tw.String())
	done()

	// Sensor-fault robustness.
	done = section(w, "Extension: sensor-fault robustness at N=48 (guideline parameters)")
	rrows, err := robustF.get()
	if err != nil {
		return err
	}
	tr := report.NewTable("", "Data set", "fault", "affected", "clean", "faulty", "degradation")
	for _, r := range rrows {
		tr.AddRow(r.Site, r.Scenario.Kind.String(),
			fmt.Sprintf("%.2f%%", r.Damage.AffectedFraction()*100),
			report.Percent(r.CleanMAPE), report.Percent(r.FaultyMAPE),
			fmt.Sprintf("%+.2fpp", r.DegradationPoints()*100))
	}
	fmt.Fprintln(w, tr.String())
	done()

	// Seasonal error profile.
	done = section(w, "Extension: month-by-month MAPE at N=48 (guideline parameters)")
	tsn := report.NewTable("", append([]string{"Data set"}, "Jan", "Feb", "Mar", "Apr", "May", "Jun",
		"Jul", "Aug", "Sep", "Oct", "Nov", "Dec")...)
	for i, site := range cfg.Sites {
		months, err := seasonalF[i].get()
		if err != nil {
			return err
		}
		cells := []string{site}
		for _, m := range months {
			if m.Samples == 0 {
				cells = append(cells, "n/a")
			} else {
				cells = append(cells, report.Percent(m.MAPE))
			}
		}
		tsn.AddRow(cells...)
	}
	fmt.Fprintln(w, tsn.String())
	done()

	// RAM design table.
	done = section(w, "Extension: predictor RAM on the MSP430F1611 (D=10)")
	mrows, err := mcu.MemoryTable(core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		return err
	}
	tm := report.NewTable("", "N", "bytes", "fits 10KB SRAM", "max D at this N")
	for _, r := range mrows {
		fits := "yes"
		if !r.Fits {
			fits = "NO"
		}
		tm.AddRow(strconv.Itoa(r.N), strconv.Itoa(r.TotalBytes), fits, strconv.Itoa(r.MaxDAtThisN))
	}
	fmt.Fprintln(w, tm.String())
	done()

	st := cfg.Store.Stats()
	fmt.Fprintf(w, "experiment store: grid %d computed / %d served, eval %d/%d, view %d/%d, series %d/%d\n",
		st.Grid.Misses, st.Grid.Hits+st.Grid.Misses,
		st.Eval.Misses, st.Eval.Hits+st.Eval.Misses,
		st.View.Misses, st.View.Hits+st.View.Misses,
		st.Series.Misses, st.Series.Hits+st.Series.Misses)
	return nil
}
