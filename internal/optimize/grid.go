package optimize

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"solarpred/internal/core"
	"solarpred/internal/metrics"
)

// Space is the parameter search space for the grid search. The paper's
// exhaustive space is Alphas = {0, 0.1, …, 1}, Ds = {2, …, 20},
// Ks = {1, …, 6}.
type Space struct {
	Alphas []float64
	Ds     []int
	Ks     []int
}

// DefaultSpace returns the paper's search space.
func DefaultSpace() Space {
	alphas := make([]float64, 11)
	for i := range alphas {
		alphas[i] = float64(i) / 10
	}
	ds := make([]int, 0, 19)
	for d := 2; d <= 20; d++ {
		ds = append(ds, d)
	}
	return Space{Alphas: alphas, Ds: ds, Ks: []int{1, 2, 3, 4, 5, 6}}
}

// Validate checks the space is non-empty and within domain bounds.
func (s Space) Validate() error {
	if len(s.Alphas) == 0 || len(s.Ds) == 0 || len(s.Ks) == 0 {
		return fmt.Errorf("optimize: search space must be non-empty in every dimension")
	}
	for _, a := range s.Alphas {
		if a < 0 || a > 1 || math.IsNaN(a) {
			return fmt.Errorf("optimize: space alpha %.3f out of [0,1]", a)
		}
	}
	for _, d := range s.Ds {
		if d < 1 {
			return fmt.Errorf("optimize: space D %d < 1", d)
		}
	}
	for _, k := range s.Ks {
		if k < 1 {
			return fmt.Errorf("optimize: space K %d < 1", k)
		}
	}
	return nil
}

// Size returns the number of (α, D, K) combinations.
func (s Space) Size() int { return len(s.Alphas) * len(s.Ds) * len(s.Ks) }

// Cell is one evaluated grid point.
type Cell struct {
	Params core.Params
	Report metrics.Report
}

// SearchResult is the outcome of a grid search.
type SearchResult struct {
	// Best is the error-minimising cell.
	Best Cell
	// Cells holds every evaluated grid point (α-major within each (D,K)
	// block), for plotting slices such as the paper's Fig. 7.
	Cells []Cell
}

// MinForK returns the minimum-error cell among those with the given K.
func (r *SearchResult) MinForK(k int) (Cell, bool) {
	return r.minWhere(func(c Cell) bool { return c.Params.K == k })
}

func (r *SearchResult) minWhere(keep func(Cell) bool) (Cell, bool) {
	best := Cell{}
	found := false
	for _, c := range r.Cells {
		if !keep(c) {
			continue
		}
		if !found || c.Report.MAPE < best.Report.MAPE {
			best = c
			found = true
		}
	}
	return best, found
}

// checkSpace validates the space against the evaluator's warm-up and
// slotting.
func (e *Eval) checkSpace(space Space) error {
	if err := space.Validate(); err != nil {
		return err
	}
	for _, d := range space.Ds {
		if err := e.checkConfig(d, space.Ks[0]); err != nil {
			return err
		}
	}
	for _, k := range space.Ks {
		if err := e.checkConfig(space.Ds[0], k); err != nil {
			return err
		}
	}
	return nil
}

// maxOf returns the maximum of a non-empty int slice.
func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// GridSearch exhaustively evaluates the space with the vectorized
// evaluator, minimising the averaged error of the chosen reference kind.
// A pool of workers pulls whole D-blocks — one history depth with every
// (K, α) of the space — from a channel; each worker owns preallocated
// scratch state, fills the η ratio cache once per D, and evaluates the
// block's entire (×K, ×α) sub-grid in one fused rolling pass over the
// region of interest (sweepBlockMulti), so the inner loops allocate
// nothing and share everything that can be shared.
//
// Cells are returned D-major, then K, then α, and ties are broken
// deterministically toward smaller D, then smaller K, then smaller α, so
// results are identical across runs and GOMAXPROCS settings (the
// per-cell arithmetic does not depend on the worker that ran it).
func (e *Eval) GridSearch(space Space, ref RefKind) (*SearchResult, error) {
	if err := e.checkSpace(space); err != nil {
		return nil, err
	}

	kMax := maxOf(space.Ks)
	reports := make([][][]metrics.Report, len(space.Ds)) // [di][ki][ai]
	errs := make([]error, len(space.Ds))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(space.Ds) {
		workers = len(space.Ds)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.getScratch()
			defer e.putScratch(sc)
			for di := range work {
				d := space.Ds[di]
				e.fillEtas(sc, d, kMax)
				perK, err := e.sweepBlockMulti(sc, d, space.Ks, space.Alphas, ref)
				if err != nil {
					errs[di] = err
					continue
				}
				reports[di] = perK
			}
		}()
	}
	for di := range space.Ds {
		work <- di
	}
	close(work)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return assembleResult(space, reports), nil
}

// gridSearchSequential is the single-goroutine reference implementation
// the parallel GridSearch is tested against: one SweepAlpha per (D, K)
// block, assembled identically. Both paths run the same block arithmetic,
// so their results must agree cell for cell, bit for bit.
func (e *Eval) gridSearchSequential(space Space, ref RefKind) (*SearchResult, error) {
	if err := e.checkSpace(space); err != nil {
		return nil, err
	}
	reports := make([][][]metrics.Report, len(space.Ds))
	for di, d := range space.Ds {
		reports[di] = make([][]metrics.Report, len(space.Ks))
		for ki, k := range space.Ks {
			reps, err := e.SweepAlpha(d, k, space.Alphas, ref)
			if err != nil {
				return nil, err
			}
			reports[di][ki] = reps
		}
	}
	return assembleResult(space, reports), nil
}

// assembleResult flattens per-(D,K,α) reports into the canonical D-major
// cell ordering and selects the minimum-error cell with deterministic
// tie-breaking (strict less-than over cells in order favours smaller D,
// then K, then α).
func assembleResult(space Space, reports [][][]metrics.Report) *SearchResult {
	res := &SearchResult{Cells: make([]Cell, 0, space.Size())}
	for di, d := range space.Ds {
		for ki, k := range space.Ks {
			for ai, rep := range reports[di][ki] {
				res.Cells = append(res.Cells, Cell{
					Params: core.Params{Alpha: space.Alphas[ai], D: d, K: k},
					Report: rep,
				})
			}
		}
	}
	res.Best = res.Cells[0]
	for _, c := range res.Cells[1:] {
		if c.Report.MAPE < res.Best.Report.MAPE {
			res.Best = c
		}
	}
	return res
}

// CurveOverD extracts, from an already computed search result, the
// minimum error over α for each requested D at the fixed K — the slice
// the paper plots in Fig. 7 — without re-evaluating anything. It returns
// false when some (d, k) combination is absent from the result's cells.
func (r *SearchResult) CurveOverD(ds []int, k int) ([]float64, bool) {
	out := make([]float64, len(ds))
	for i, d := range ds {
		best := math.Inf(1)
		found := false
		for _, c := range r.Cells {
			if c.Params.D == d && c.Params.K == k && c.Report.MAPE < best {
				best = c.Report.MAPE
				found = true
			}
		}
		if !found {
			return nil, false
		}
		out[i] = best
	}
	return out, true
}

// CurveOverD returns, for each D in ds, the minimum error over α at the
// fixed K — the slice the paper plots in Fig. 7 (MAPE versus D). The
// returned values are index-aligned with ds.
func (e *Eval) CurveOverD(ds []int, k int, alphas []float64, ref RefKind) ([]float64, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("optimize: empty D list")
	}
	out := make([]float64, len(ds))
	for i, d := range ds {
		reports, err := e.SweepAlpha(d, k, alphas, ref)
		if err != nil {
			return nil, err
		}
		best := reports[0].MAPE
		for _, r := range reports[1:] {
			if r.MAPE < best {
				best = r.MAPE
			}
		}
		out[i] = best
	}
	return out, nil
}
