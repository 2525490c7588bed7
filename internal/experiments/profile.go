package experiments

import (
	"fmt"

	"solarpred/internal/cloud"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/optimize"
)

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// DayTypeError is the error split by the generator's realised weather
// type — an analysis the paper could not do (NREL traces carry no
// labels) but which explains its per-site MAPE differences.
type DayTypeError struct {
	Site   string
	N      int
	Params core.Params
	// MAPE and Days are indexed by cloud.DayType (Clear..Mixed).
	MAPE [4]float64
	Days [4]int
}

// ErrorByDayType scores each day of a site's trace separately and
// aggregates MAPE by the day's realised weather type.
func ErrorByDayType(cfg Config, site string, n int, params core.Params) (*DayTypeError, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := dataset.SiteByName(site)
	if err != nil {
		return nil, err
	}
	st.Days = cfg.Days
	series, plans, err := dataset.GenerateLabeled(st)
	if err != nil {
		return nil, err
	}
	view, err := series.Slot(n)
	if err != nil {
		return nil, err
	}
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(cfg.WarmupDays))
	if err != nil {
		return nil, err
	}
	pairs, err := e.Pairs(params)
	if err != nil {
		return nil, err
	}
	threshold := e.Threshold(optimize.RefSlotMean)

	out := &DayTypeError{Site: site, N: n, Params: params}
	var sums [4]float64
	var counts [4]int
	daySeen := make(map[int]bool)
	first := cfg.WarmupDays * n
	for i, p := range pairs {
		if p.SlotMean < threshold || p.SlotMean <= 0 {
			continue
		}
		day := (first + i) / n
		if day >= len(plans) {
			return nil, fmt.Errorf("experiments: day %d beyond plan list", day)
		}
		tp := plans[day].Type
		if tp < cloud.Clear || tp > cloud.Mixed {
			return nil, fmt.Errorf("experiments: bad day type %v", tp)
		}
		sums[tp] += abs(p.SlotMean-p.Predicted) / p.SlotMean
		counts[tp]++
		if !daySeen[day] {
			daySeen[day] = true
			out.Days[tp]++
		}
	}
	for i := range sums {
		if counts[i] > 0 {
			out.MAPE[i] = sums[i] / float64(counts[i])
		}
	}
	return out, nil
}
