package optimize

import (
	"math"
	"testing"

	"solarpred/internal/adaptive"
	"solarpred/internal/core"
)

func adaptiveFixture(t *testing.T) (*Eval, []adaptive.Candidate, *SearchResult) {
	t.Helper()
	view := testView(t, "SPMD", 60, 24)
	e := newEval(t, view, WithWarmupDays(12))
	space := Space{
		Alphas: []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		Ds:     []int{10},
		Ks:     []int{1, 2, 3, 6},
	}
	res, err := e.GridSearch(space, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := adaptive.Grid(space.Alphas, space.Ks)
	if err != nil {
		t.Fatal(err)
	}
	return e, cands, res
}

func TestAdaptiveEvalValidation(t *testing.T) {
	e, cands, _ := adaptiveFixture(t)
	sel, err := adaptive.NewFollowTheLeader(len(cands))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdaptiveEval(10, nil, RefSlotMean, sel); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := e.AdaptiveEval(10, cands, RefSlotMean); err == nil {
		t.Error("empty selector list accepted")
	}
	if _, err := e.AdaptiveEval(10, []adaptive.Candidate{{Alpha: 2, K: 1}}, RefSlotMean, sel); err == nil {
		t.Error("bad candidate accepted")
	}
	if _, err := e.AdaptiveEval(13, cands, RefSlotMean, sel); err == nil {
		t.Error("D beyond warm-up accepted")
	}
}

func TestAdaptivePoliciesLandBetweenStaticAndOracle(t *testing.T) {
	e, cands, res := adaptiveFixture(t)
	grid := core.DynamicGrid{Alphas: []float64{0, 0.2, 0.4, 0.6, 0.8, 1}, Ks: []int{1, 2, 3, 6}}
	oracle, err := e.DynamicEval(10, grid, res.Best, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	static := res.Best.Report.MAPE

	f, _ := adaptive.NewFollowTheLeader(len(cands))
	d, _ := adaptive.NewDiscounted(len(cands), 0.995)
	w, _ := adaptive.NewSlidingWindow(len(cands), 3*24)
	h, _ := adaptive.NewHedge(len(cands), 0.2)
	sels := []adaptive.Selector{f, d, w, h}
	results, err := e.AdaptiveEval(10, cands, RefSlotMean, sels...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sel := range sels {
		r := results[i]
		// The realizable policy cannot beat the per-point oracle.
		if r.Report.MAPE < oracle.BothMAPE-1e-9 {
			t.Errorf("%s: %.4f beats the clairvoyant bound %.4f",
				sel.Name(), r.Report.MAPE, oracle.BothMAPE)
		}
		// And it must stay in the ballpark of the hindsight-best static
		// configuration (the point of online self-tuning). Allow 25 %
		// slack for learning transients on this short trace.
		if r.Report.MAPE > static*1.25 {
			t.Errorf("%s: %.4f far above static optimum %.4f",
				sel.Name(), r.Report.MAPE, static)
		}
		if r.Report.Samples == 0 {
			t.Errorf("%s: nothing scored", sel.Name())
		}
		if r.Policy != sel.Name() {
			t.Errorf("policy name mismatch: %s vs %s", r.Policy, sel.Name())
		}
	}
}

func TestAdaptiveSingleCandidateEqualsStatic(t *testing.T) {
	// A policy over a single arm must reproduce the fixed-parameter
	// evaluation: the same predictions are scored, so the two paths agree
	// to association tolerance. (The vectorized sweep aggregates through
	// the piecewise-linear α accumulator, the realizable path scores
	// sequentially like a node would, so the sums associate differently —
	// see the README's kernel notes.)
	e, _, _ := adaptiveFixture(t)
	params := core.Params{Alpha: 0.6, D: 10, K: 2}
	sel, err := adaptive.NewFollowTheLeader(1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.AdaptiveEval(10, []adaptive.Candidate{{Alpha: params.Alpha, K: params.K}}, RefSlotMean, sel)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	direct, err := e.SweepAlpha(params.D, params.K, []float64{params.Alpha}, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(r.Report.MAPE - direct[0].MAPE); diff > 1e-9*(1+direct[0].MAPE) {
		t.Errorf("single-arm adaptive %v != static %v (diff %g)", r.Report.MAPE, direct[0].MAPE, diff)
	}
	if r.SwitchCount != 0 {
		t.Errorf("single arm cannot switch, got %d", r.SwitchCount)
	}
}

func TestAdaptiveSwitchCountReasonable(t *testing.T) {
	e, cands, _ := adaptiveFixture(t)
	sel, err := adaptive.NewDiscounted(len(cands), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.AdaptiveEval(10, cands, RefSlotMean, sel)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.SwitchCount <= 0 {
		t.Error("a drift-aware policy on a variable site should switch at least once")
	}
	if r.SwitchCount >= r.Report.Samples+r.Report.OutsideROI {
		t.Error("switching every slot means the policy learned nothing")
	}
	if r.FinalCandidate.K < 1 {
		t.Error("final candidate not recorded")
	}
}
