package experiments

import (
	"fmt"

	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/optimize"
)

// TableVIRow is one (site, N) row of the realizable dynamic-parameter
// study — this library's extension of the paper's Table V, answering its
// closing question: how much of the clairvoyant gain can an algorithm
// that only sees the past actually collect?
type TableVIRow struct {
	Site string
	N    int
	// Degenerate mirrors the Table III footnote rows.
	Degenerate bool
	// Static is the hindsight-best fixed-parameter MAPE (Table III).
	Static float64
	// Oracle is the clairvoyant K+α bound (Table V).
	Oracle float64
	// Policies holds one result per realizable policy, in the order
	// returned by PolicyNames.
	Policies []optimize.AdaptiveResult
}

// PolicyNames lists the realizable policies evaluated by TableVI, in
// report order.
func PolicyNames() []string {
	return []string{"follow-the-leader", "discounted-ftl(0.998)", "window(2d)", "hedge(0.2)"}
}

// buildPolicies constructs fresh selector instances for n candidates and
// sampling rate nSlots (the window policy spans two days of slots).
func buildPolicies(n, nSlots int) ([]adaptive.Selector, error) {
	ftl, err := adaptive.NewFollowTheLeader(n)
	if err != nil {
		return nil, err
	}
	disc, err := adaptive.NewDiscounted(n, 0.998)
	if err != nil {
		return nil, err
	}
	win, err := adaptive.NewSlidingWindow(n, 2*nSlots)
	if err != nil {
		return nil, err
	}
	hedge, err := adaptive.NewHedge(n, 0.2)
	if err != nil {
		return nil, err
	}
	return []adaptive.Selector{ftl, disc, win, hedge}, nil
}

// TableVI runs the realizable dynamic-parameter study over the
// configured sites and sampling rates: for every (site, N) it reports
// the static hindsight optimum, the clairvoyant oracle bound, and the
// MAPE each online policy achieves with no offline tuning at all.
func TableVI(cfg Config) ([]TableVIRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grid := core.DynamicGrid{Alphas: cfg.Space.Alphas, Ks: cfg.Space.Ks}
	cands, err := adaptive.Grid(cfg.Space.Alphas, cfg.Space.Ks)
	if err != nil {
		return nil, err
	}
	jobs := crossSitesNs(cfg.Sites, cfg.Ns)
	rows := make([]TableVIRow, len(jobs))
	err = parallelFor(cfg.workers(), len(jobs), func(i int) error {
		row, err := tableVIRow(cfg, jobs[i].site, jobs[i].n, grid, cands)
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

// tableVIRow evaluates one (site, N) row of TableVI with its own policy
// instances, so rows can run concurrently.
func tableVIRow(cfg Config, site string, n int, grid core.DynamicGrid, cands []adaptive.Candidate) (TableVIRow, error) {
	row := TableVIRow{Site: site, N: n}
	deg, err := Degenerate(site, n)
	if err != nil {
		return row, err
	}
	if deg {
		row.Degenerate = true
		return row, nil
	}
	e, _, err := cfg.evalFor(site, n)
	if err != nil {
		return row, err
	}
	res, err := cfg.gridFor(site, n, optimize.RefSlotMean)
	if err != nil {
		return row, err
	}
	d := res.Best.Params.D
	dyn, err := e.DynamicEval(d, grid, res.Best, optimize.RefSlotMean)
	if err != nil {
		return row, err
	}
	row.Static = res.Best.Report.MAPE
	row.Oracle = dyn.BothMAPE

	policies, err := buildPolicies(len(cands), n)
	if err != nil {
		return row, err
	}
	results, err := e.AdaptiveEval(d, cands, optimize.RefSlotMean, policies...)
	if err != nil {
		return row, err
	}
	for _, r := range results {
		if r.Report.MAPE < row.Oracle-1e-9 {
			return row, fmt.Errorf("experiments: %s N=%d: policy %s beat the oracle — bug",
				site, n, r.Policy)
		}
	}
	row.Policies = results
	return row, nil
}
