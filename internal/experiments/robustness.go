package experiments

import (
	"solarpred/internal/faults"
	"solarpred/internal/optimize"
)

// RobustnessRow reports how a fault scenario moves the predictor's MAPE
// on one site relative to the clean trace.
type RobustnessRow struct {
	Site     string
	Scenario faults.Config
	Damage   faults.Report
	// CleanMAPE and FaultyMAPE are evaluated with identical parameters
	// (the guideline point) so only the fault differs.
	CleanMAPE  float64
	FaultyMAPE float64
}

// DegradationPoints returns the MAPE increase in absolute points.
func (r RobustnessRow) DegradationPoints() float64 {
	return r.FaultyMAPE - r.CleanMAPE
}

// Robustness runs the fault-injection study at sampling rate n: each
// scenario from faults.Scenarios is injected into every configured
// site's trace, and the guideline-parameter predictor is scored on the
// corrupted measurements against the *clean* slot means (the energy
// actually delivered does not care about the sensor fault). This
// separates sensing damage from forecasting skill.
func Robustness(cfg Config, n int) ([]RobustnessRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := GuidelineParams(n)
	var rows []RobustnessRow
	for _, site := range cfg.Sites {
		clean, err := cfg.Trace(site)
		if err != nil {
			return nil, err
		}
		// The clean evaluator rides the store (its views and evaluators are
		// the ones every other driver shares); the per-fault corrupted
		// views below are one-off and stay uncached.
		cleanEval, cleanView, err := cfg.evalFor(site, n)
		if err != nil {
			return nil, err
		}
		cleanRep, err := cleanEval.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			return nil, err
		}
		for _, sc := range faults.Scenarios() {
			corrupted, damage, err := faults.Inject(clean, sc)
			if err != nil {
				return nil, err
			}
			faultyView, err := corrupted.Slot(n)
			if err != nil {
				return nil, err
			}
			// Score the faulty predictor inputs against the clean
			// references: Start (and its prefix column) comes from the
			// corrupted trace, Mean from the clean one.
			hybrid := *faultyView
			hybrid.Mean = cleanView.Mean
			eval, err := optimize.NewEval(&hybrid, optimize.WithWarmupDays(cfg.WarmupDays))
			if err != nil {
				return nil, err
			}
			rep, err := eval.EvaluateOnline(params, optimize.RefSlotMean)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RobustnessRow{
				Site:       site,
				Scenario:   sc,
				Damage:     damage,
				CleanMAPE:  cleanRep.MAPE,
				FaultyMAPE: rep.MAPE,
			})
		}
	}
	return rows, nil
}
