package solarpred_test

import (
	"math"
	"testing"

	"solarpred"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/faults"
	"solarpred/internal/mcu"
	"solarpred/internal/optimize"
)

// TestPipelineEndToEnd chains every subsystem on one deterministic run:
// generate → inject a fault → slot → grid-search → dynamic oracle →
// realizable policy → fixed-point kernel cross-check → energy budget →
// closed-loop node simulation. It asserts the cross-module invariants
// that no single-package test can see.
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is not short")
	}
	site, err := dataset.SiteByName("ECSU")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dataset.GenerateDays(site, 70)
	if err != nil {
		t.Fatal(err)
	}

	// Fault injection must not change the clean trace and must keep the
	// corrupted one structurally valid.
	corrupted, damage, err := faults.Inject(clean, faults.Config{
		Kind: faults.Dropout, Rate: 0.005, MeanLen: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if damage.AffectedSamples == 0 {
		t.Fatal("fault injection did nothing")
	}
	if corrupted.Days() != clean.Days() || corrupted.ResolutionMinutes != clean.ResolutionMinutes {
		t.Fatal("fault injection changed trace shape")
	}

	const n = 24
	view, err := clean.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := optimize.NewEval(view, optimize.WithWarmupDays(14))
	if err != nil {
		t.Fatal(err)
	}
	space := optimize.Space{
		Alphas: []float64{0, 0.3, 0.6, 0.9},
		Ds:     []int{4, 8, 12},
		Ks:     []int{1, 2, 3},
	}
	res, err := eval.GridSearch(space, optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	static := res.Best.Report.MAPE
	if static <= 0 || static > 0.6 {
		t.Fatalf("implausible static MAPE %.4f", static)
	}

	// Clairvoyant oracle dominates static; realizable policy sits between
	// oracle and a generous static bound.
	grid := core.DynamicGrid{Alphas: space.Alphas, Ks: space.Ks}
	dyn, err := eval.DynamicEval(res.Best.Params.D, grid, res.Best, optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Check(); err != nil {
		t.Fatal(err)
	}
	cands, err := solarpred.CandidateGrid(space.Alphas, space.Ks)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := solarpred.NewDiscountedFTL(len(cands), 0.995)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveRes, err := eval.AdaptiveEval(res.Best.Params.D, cands, optimize.RefSlotMean, sel)
	if err != nil {
		t.Fatal(err)
	}
	if adaptiveRes[0].Report.MAPE < dyn.BothMAPE-1e-9 {
		t.Fatal("realizable policy beat the clairvoyant oracle")
	}
	if adaptiveRes[0].Report.MAPE > static*1.3 {
		t.Fatalf("realizable policy %.4f far above static %.4f", adaptiveRes[0].Report.MAPE, static)
	}

	// The fixed-point kernel must track the float predictor on this
	// trace. At a handful of dawn slots the two legitimately disagree:
	// when μD sits below Q16.16 resolution the kernel falls back to a
	// neutral ratio while the float path clamps a meaningless quotient
	// to EtaMax. Require such slots to be rare (<0.5 %) and everything
	// else to agree within 2 %.
	params := res.Best.Params
	kern, err := mcu.NewKernel(n, params)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	divergent, total := 0, 0
	for tt := 0; tt < view.TotalSlots(); tt++ {
		if err := kern.Observe(tt%n, view.Start[tt]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Observe(tt%n, view.Start[tt]); err != nil {
			t.Fatal(err)
		}
		pq, err := kern.Predict()
		if err != nil {
			t.Fatal(err)
		}
		pf, err := ref.Predict()
		if err != nil {
			t.Fatal(err)
		}
		total++
		if math.Abs(pq-pf) > 0.02*(1+pf) {
			divergent++
		}
	}
	if frac := float64(divergent) / float64(total); frac > 0.005 {
		t.Fatalf("kernel diverges from float on %.2f%% of slots (limit 0.5%%)", frac*100)
	}

	// The optimal configuration must fit the F1611 and cost µJ-scale
	// energy per prediction.
	mem, err := mcu.Memory(n, params)
	if err != nil {
		t.Fatal(err)
	}
	if !mem.FitsF1611() {
		t.Fatalf("optimal config does not fit RAM: %d bytes", mem.TotalBytes())
	}
	budget, err := mcu.DayBudget(n, params, mcu.SoftFloat)
	if err != nil {
		t.Fatal(err)
	}
	if budget.PerPredictionJ <= 0 || budget.PerPredictionJ > 20e-6 {
		t.Fatalf("prediction energy %.2g J implausible", budget.PerPredictionJ)
	}

	// Close the loop: the node simulation must run on the same view with
	// the optimal predictor.
	pred, err := core.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := solarpred.SimulateNode(solarpred.DefaultNodeConfig(), view, pred)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Slots != view.TotalSlots() || simRes.HarvestedJ <= 0 {
		t.Fatal("node simulation incomplete")
	}
}

// TestReproducibilityAcrossRuns pins the pipeline's determinism: two
// fresh generations and evaluations of the same site must agree to the
// last bit.
func TestReproducibilityAcrossRuns(t *testing.T) {
	run := func() float64 {
		site, err := dataset.SiteByName("PFCI")
		if err != nil {
			t.Fatal(err)
		}
		series, err := dataset.GenerateDays(site, 40)
		if err != nil {
			t.Fatal(err)
		}
		view, err := series.Slot(48)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := optimize.NewEval(view, optimize.WithWarmupDays(10))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eval.EvaluateOnline(core.Params{Alpha: 0.6, D: 8, K: 2}, optimize.RefSlotMean)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MAPE
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("pipeline not bit-reproducible: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatal("degenerate MAPE")
	}
}

// TestExperimentDriversShareTraces verifies the experiment store: two
// drivers touching the same site at the same length must reuse one
// generated trace (a wall-clock guarantee for cmd/repro).
func TestExperimentDriversShareTraces(t *testing.T) {
	cfg := experiments.QuickConfig()
	a, err := cfg.Trace("SPMD")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.TableII(cfg, 48); err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Trace("SPMD")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("drivers regenerated the trace")
	}
}
