package optimize

import (
	"math"
	"runtime"
	"testing"

	"solarpred/internal/core"
)

func smallSpace() Space {
	return Space{
		Alphas: []float64{0, 0.3, 0.6, 0.9},
		Ds:     []int{2, 5, 8},
		Ks:     []int{1, 2, 3},
	}
}

func TestDefaultSpace(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Alphas) != 11 || len(s.Ds) != 19 || len(s.Ks) != 6 {
		t.Errorf("space dims: %d %d %d", len(s.Alphas), len(s.Ds), len(s.Ks))
	}
	if s.Size() != 11*19*6 {
		t.Errorf("Size = %d", s.Size())
	}
	if s.Ds[0] != 2 || s.Ds[18] != 20 {
		t.Errorf("D range: %v", s.Ds)
	}
}

func TestSpaceValidate(t *testing.T) {
	bad := []Space{
		{},
		{Alphas: []float64{0.5}, Ds: []int{2}},
		{Alphas: []float64{0.5}, Ks: []int{1}},
		{Ds: []int{2}, Ks: []int{1}},
		{Alphas: []float64{1.5}, Ds: []int{2}, Ks: []int{1}},
		{Alphas: []float64{0.5}, Ds: []int{0}, Ks: []int{1}},
		{Alphas: []float64{0.5}, Ds: []int{2}, Ks: []int{0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
}

func TestGridSearchFindsExhaustiveMinimum(t *testing.T) {
	view := testView(t, "SPMD", 35, 24)
	e := newEval(t, view, WithWarmupDays(10))
	space := smallSpace()
	res, err := e.GridSearch(space, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != space.Size() {
		t.Fatalf("cells = %d, want %d", len(res.Cells), space.Size())
	}
	// The best cell must have the minimum MAPE of all cells and be
	// reproducible by a direct sweep.
	for _, c := range res.Cells {
		if c.Report.MAPE < res.Best.Report.MAPE {
			t.Fatalf("cell %+v beats reported best %+v", c, res.Best)
		}
	}
	direct, err := e.SweepAlpha(res.Best.Params.D, res.Best.Params.K,
		[]float64{res.Best.Params.Alpha}, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct[0].MAPE-res.Best.Report.MAPE) > 1e-12 {
		t.Error("best cell not reproducible")
	}
}

func TestGridSearchDeterministic(t *testing.T) {
	view := testView(t, "ECSU", 30, 24)
	e := newEval(t, view, WithWarmupDays(9))
	a, err := e.GridSearch(smallSpace(), RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.GridSearch(smallSpace(), RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Params != b.Best.Params {
		t.Errorf("nondeterministic best: %+v vs %+v", a.Best.Params, b.Best.Params)
	}
	for i := range a.Cells {
		if a.Cells[i].Params != b.Cells[i].Params {
			t.Fatal("cell ordering not deterministic")
		}
	}
}

// TestGridSearchMatchesSequentialReference pins the parallel worker-pool
// GridSearch to the single-goroutine reference implementation: every cell
// must be identical — parameters and full report, bit for bit — because
// both paths run the same block arithmetic and assembly. Run under -race
// this also exercises the pool's sharing of the evaluator and scratch.
func TestGridSearchMatchesSequentialReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // force real worker concurrency even on 1-CPU machines
	defer runtime.GOMAXPROCS(prev)

	view := testView(t, "ORNL", 40, 24)
	e := newEval(t, view, WithWarmupDays(12))
	space := Space{
		Alphas: []float64{0, 0.25, 0.5, 0.75, 1},
		Ds:     []int{2, 3, 5, 8, 12},
		Ks:     []int{1, 2, 4, 6},
	}
	for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
		par, err := e.GridSearch(space, ref)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := e.gridSearchSequential(space, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Cells) != len(seq.Cells) {
			t.Fatalf("%v: %d cells parallel vs %d sequential", ref, len(par.Cells), len(seq.Cells))
		}
		for i := range par.Cells {
			if par.Cells[i] != seq.Cells[i] {
				t.Fatalf("%v: cell %d differs:\nparallel:   %+v\nsequential: %+v",
					ref, i, par.Cells[i], seq.Cells[i])
			}
		}
		if par.Best != seq.Best {
			t.Fatalf("%v: best differs: %+v vs %+v", ref, par.Best, seq.Best)
		}
	}
}

func TestSearchResultCurveOverD(t *testing.T) {
	view := testView(t, "SPMD", 35, 24)
	e := newEval(t, view, WithWarmupDays(12))
	space := smallSpace()
	res, err := e.GridSearch(space, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	// The cell-extracted curve must equal the directly evaluated one.
	direct, err := e.CurveOverD(space.Ds, 2, space.Alphas, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	fromCells, ok := res.CurveOverD(space.Ds, 2)
	if !ok {
		t.Fatal("curve extraction failed for in-space K")
	}
	for i := range direct {
		if direct[i] != fromCells[i] {
			t.Errorf("D=%d: direct %v != cells %v", space.Ds[i], direct[i], fromCells[i])
		}
	}
	if _, ok := res.CurveOverD(space.Ds, 99); ok {
		t.Error("curve extraction for out-of-space K should fail")
	}
	if _, ok := res.CurveOverD([]int{99}, 2); ok {
		t.Error("curve extraction for out-of-space D should fail")
	}
}

func TestGridSearchValidation(t *testing.T) {
	view := testView(t, "SPMD", 30, 24)
	e := newEval(t, view, WithWarmupDays(6))
	if _, err := e.GridSearch(Space{}, RefSlotMean); err == nil {
		t.Error("empty space accepted")
	}
	// D beyond warm-up must be rejected.
	s := smallSpace()
	s.Ds = []int{2, 7}
	if _, err := e.GridSearch(s, RefSlotMean); err == nil {
		t.Error("D beyond warm-up accepted")
	}
	s = smallSpace()
	s.Ks = []int{25}
	if _, err := e.GridSearch(s, RefSlotMean); err == nil {
		t.Error("K beyond N accepted")
	}
}

func TestMinForK(t *testing.T) {
	view := testView(t, "SPMD", 30, 24)
	e := newEval(t, view, WithWarmupDays(10))
	res, err := e.GridSearch(smallSpace(), RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := res.MinForK(2)
	if !ok || k.Params.K != 2 {
		t.Errorf("MinForK(2) = %+v, %v", k, ok)
	}
	for _, cell := range res.Cells {
		if cell.Params.K == 2 && cell.Report.MAPE < k.Report.MAPE {
			t.Fatal("MinForK not minimal")
		}
	}
	if _, ok := res.MinForK(99); ok {
		t.Error("MinForK(99) should not exist")
	}
}

func TestCurveOverD(t *testing.T) {
	view := testView(t, "SPMD", 35, 24)
	e := newEval(t, view, WithWarmupDays(12))
	ds := []int{2, 4, 8, 12}
	alphas := []float64{0.3, 0.6, 0.9}
	curve, err := e.CurveOverD(ds, 2, alphas, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ds) {
		t.Fatalf("curve length %d", len(curve))
	}
	// Each point equals the direct minimum over alphas.
	for i, d := range ds {
		reports, err := e.SweepAlpha(d, 2, alphas, RefSlotMean)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, r := range reports {
			if r.MAPE < best {
				best = r.MAPE
			}
		}
		if math.Abs(curve[i]-best) > 1e-12 {
			t.Errorf("curve[%d] = %v, want %v", i, curve[i], best)
		}
	}
	if _, err := e.CurveOverD(nil, 2, alphas, RefSlotMean); err == nil {
		t.Error("empty D list accepted")
	}
	if _, err := e.CurveOverD([]int{50}, 2, alphas, RefSlotMean); err == nil {
		t.Error("D beyond warm-up accepted")
	}
}

func TestDErrorCurveFlattens(t *testing.T) {
	// The paper's Fig. 7 shape: the MAPE-vs-D curve's improvement from
	// D=2 to D=8 dwarfs the improvement from D=8 to D=14.
	view := testView(t, "SPMD", 60, 24)
	e := newEval(t, view, WithWarmupDays(14))
	curve, err := e.CurveOverD([]int{2, 8, 14}, 2, []float64{0.5, 0.7}, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	early := curve[0] - curve[1]
	late := curve[1] - curve[2]
	if late > early {
		t.Errorf("no elbow: gain(2→8)=%.4f, gain(8→14)=%.4f", early, late)
	}
}

func TestDynamicEvalInvariants(t *testing.T) {
	view := testView(t, "SPMD", 45, 24)
	e := newEval(t, view, WithWarmupDays(12))
	space := smallSpace()
	res, err := e.GridSearch(space, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.DynamicGrid{Alphas: space.Alphas, Ks: space.Ks}
	dyn, err := e.DynamicEval(res.Best.Params.D, grid, res.Best, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Check(); err != nil {
		t.Fatal(err)
	}
	if dyn.BothMAPE >= dyn.StaticMAPE {
		t.Errorf("clairvoyant both %.4f not below static %.4f", dyn.BothMAPE, dyn.StaticMAPE)
	}
	if dyn.Gain(dyn.BothMAPE) <= 0 {
		t.Error("gain should be positive")
	}
	if dyn.Gain(dyn.BothMAPE) <= dyn.Gain(dyn.KOnlyMAPE)-1e-12 {
		t.Error("both-gain should be at least K-only gain")
	}
}

func TestDynamicEvalValidation(t *testing.T) {
	view := testView(t, "SPMD", 30, 24)
	e := newEval(t, view, WithWarmupDays(10))
	best := Cell{Params: core.Params{Alpha: 0.5, D: 5, K: 1}}
	if _, err := e.DynamicEval(5, core.DynamicGrid{}, best, RefSlotMean); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := e.DynamicEval(11, core.DefaultDynamicGrid(), best, RefSlotMean); err == nil {
		t.Error("D beyond warm-up accepted")
	}
	// The K bound must hold for the grid's maximum K even when the Ks
	// slice is not sorted.
	small := testView(t, "SPMD", 30, 4)
	es := newEval(t, small, WithWarmupDays(10))
	unsorted := core.DynamicGrid{Alphas: []float64{0.5}, Ks: []int{6, 2}}
	if _, err := es.DynamicEval(5, unsorted, best, RefSlotMean); err == nil {
		t.Error("unsorted grid with max K beyond N accepted")
	}
}

func TestDynamicGainShrinksWithN(t *testing.T) {
	// Paper Table V: relative dynamic gains increase as N decreases.
	gain := func(n int) float64 {
		view := testView(t, "SPMD", 60, n)
		e := newEval(t, view, WithWarmupDays(12))
		space := Space{Alphas: []float64{0, 0.2, 0.4, 0.6, 0.8, 1}, Ds: []int{10}, Ks: []int{1, 2, 3, 4, 5, 6}}
		res, err := e.GridSearch(space, RefSlotMean)
		if err != nil {
			t.Fatal(err)
		}
		grid := core.DynamicGrid{Alphas: space.Alphas, Ks: space.Ks}
		dyn, err := e.DynamicEval(10, grid, res.Best, RefSlotMean)
		if err != nil {
			t.Fatal(err)
		}
		return dyn.Gain(dyn.BothMAPE)
	}
	g24, g96 := gain(24), gain(96)
	if g24 <= 0 || g96 <= 0 {
		t.Fatalf("gains must be positive: %v %v", g24, g96)
	}
	// Allow slack: the trend is weak on short traces, but N=24 gains must
	// not be dramatically smaller than N=96 gains.
	if g24 < g96*0.8 {
		t.Errorf("gain at N=24 (%.3f) much smaller than at N=96 (%.3f)", g24, g96)
	}
}

func TestDynamicResultGainEdgeCases(t *testing.T) {
	r := &DynamicResult{StaticMAPE: 0}
	if r.Gain(0.1) != 0 {
		t.Error("zero static error should give zero gain")
	}
	r.StaticMAPE = 0.2
	if math.Abs(r.Gain(0.1)-0.5) > 1e-12 {
		t.Error("gain arithmetic")
	}
}

func TestDynamicResultCheckDetectsViolations(t *testing.T) {
	ok := &DynamicResult{StaticMAPE: 0.2, BothMAPE: 0.05, KOnlyMAPE: 0.1, AlphaOnlyMAPE: 0.08}
	if err := ok.Check(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	bad := []*DynamicResult{
		{StaticMAPE: 0.2, BothMAPE: 0.15, KOnlyMAPE: 0.1, AlphaOnlyMAPE: 0.12},
		{StaticMAPE: 0.2, BothMAPE: 0.05, KOnlyMAPE: 0.25, AlphaOnlyMAPE: 0.08},
		{StaticMAPE: 0.2, BothMAPE: 0.05, KOnlyMAPE: 0.1, AlphaOnlyMAPE: 0.3},
	}
	for i, r := range bad {
		if err := r.Check(); err == nil {
			t.Errorf("bad result %d accepted", i)
		}
	}
}
