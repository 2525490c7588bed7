// Package solarpred is a library for predicting solar harvested energy
// on embedded sensor nodes, reproducing and extending the evaluation of
// Ali, Al-Hashimi, Recas and Atienza, "Evaluation and Design Exploration
// of Solar Harvested-Energy Prediction Algorithm" (DATE 2010).
//
// The core algorithm is the weather-conditioned moving-average predictor
// of Recas et al.: a day is discretised into N slots, and the power at
// the start of the next slot is forecast from a weighted combination of
// the current measurement (persistence) and the D-day historical average
// of the target slot, conditioned by a K-slot brightness factor:
//
//	ê(n+1) = α·ẽ(n) + (1−α)·μD(n+1)·ΦK
//
// This package is the facade over the implementation in internal/…; it
// exposes the online predictor, the baselines it is evaluated against,
// the paper's error-measurement methodology (MAPE versus MAPE′ with a
// region-of-interest filter), synthetic NREL-like site traces, the
// parameter-exploration drivers that regenerate every table and figure
// of the paper, and an MSP430-class energy-cost model.
//
// # Quick start
//
//	site, _ := solarpred.SiteByName("SPMD")
//	trace, _ := solarpred.GenerateDays(site, 60)
//	view, _ := trace.Slot(48) // 48 slots/day = 30-minute horizon
//	pred, _ := solarpred.NewPredictor(48, solarpred.Params{Alpha: 0.7, D: 10, K: 2})
//	for t := 0; t < view.TotalSlots(); t++ {
//		pred.Observe(t%48, view.Start[t])
//		forecast, _ := pred.Predict()
//		_ = forecast // budget the next slot's energy as forecast·T
//	}
//
// See the examples directory for runnable programs, and README.md's
// "Package map" and "Reproducing the paper" sections for the system
// inventory and the experiment index.
package solarpred

import (
	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/faults"
	"solarpred/internal/harvest"
	"solarpred/internal/mcu"
	"solarpred/internal/metrics"
	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// Params are the WCMA predictor's tunable parameters: the persistence
// weight α ∈ [0,1], the history depth D (days), and the conditioning
// window K (slots).
type Params = core.Params

// Predictor is the online WCMA predictor (paper Eq. 1–5).
type Predictor = core.Predictor

// SlotPredictor is the interface shared by the WCMA predictor and all
// baselines: Observe each slot's measured power in order, Predict the
// next slot's power.
type SlotPredictor = core.SlotPredictor

// NewPredictor creates an online predictor for n slots per day.
func NewPredictor(n int, p Params) (*Predictor, error) { return core.New(n, p) }

// NewEWMA creates the exponentially-weighted moving-average baseline of
// Kansal et al. with smoothing factor beta.
func NewEWMA(n int, beta float64) (*core.EWMA, error) { return core.NewEWMA(n, beta) }

// NewPersistence creates the persistence baseline (ê(n+1) = ẽ(n)).
func NewPersistence(n int) (*core.Persistence, error) { return core.NewPersistence(n) }

// NewPreviousDay creates the previous-day baseline.
func NewPreviousDay(n int) (*core.PreviousDay, error) { return core.NewPreviousDay(n) }

// NewSlotAR creates the per-slot-profile + AR(1)-deviation baseline:
// profile smoothing beta and regression forgetting lambda.
func NewSlotAR(n int, beta, lambda float64) (*core.SlotAR, error) {
	return core.NewSlotAR(n, beta, lambda)
}

// Series is a regularly sampled power trace spanning whole days.
type Series = timeseries.Series

// SlotView is a trace divided into N prediction slots per day, exposing
// the slot-start samples (predictor input) and slot means (evaluation
// reference).
type SlotView = timeseries.SlotView

// Site describes one evaluation location (a row of the paper's Table I).
type Site = dataset.Site

// Sites returns the paper's six evaluation sites.
func Sites() []Site { return dataset.Sites() }

// SiteByName returns a built-in site by its Table I name (SPMD, ECSU,
// ORNL, HSU, NPCS, PFCI).
func SiteByName(name string) (Site, error) { return dataset.SiteByName(name) }

// Generate produces a site's full synthetic irradiance trace
// (deterministic per site).
func Generate(site Site) (*Series, error) { return dataset.Generate(site) }

// GenerateDays produces the first n days of a site's trace.
func GenerateDays(site Site, n int) (*Series, error) { return dataset.GenerateDays(site, n) }

// Report is an evaluation summary: MAPE (the paper's Eq. 8), RMSE, MAE,
// MBE, the worst absolute error, and sample counts.
type Report = metrics.Report

// Evaluator scores predictors over a slotted trace under the paper's
// methodology (days 21–365, samples ≥ 10 % of peak). It is a
// precomputed, share-everything engine: the slot view's per-slot
// prefix-sum columns give O(1) windowed means, the region-of-interest
// filter is resolved once at construction, and grid searches run on a
// worker pool with per-worker scratch and per-D shared ΦK ratio caches —
// see internal/optimize for the details.
type Evaluator = optimize.Eval

// NewEvaluator builds an evaluator for a slot view with the paper's
// defaults (20 warm-up days, 10 % region of interest).
func NewEvaluator(view *SlotView) (*Evaluator, error) { return optimize.NewEval(view) }

// EvalOption customises an Evaluator (warm-up, ROI fraction, η clamp).
type EvalOption = optimize.Option

// NewEvaluatorOptions builds an evaluator with explicit options.
func NewEvaluatorOptions(view *SlotView, opts ...EvalOption) (*Evaluator, error) {
	return optimize.NewEval(view, opts...)
}

// WithWarmupDays overrides the evaluator's scoring warm-up (paper: 20).
func WithWarmupDays(days int) EvalOption { return optimize.WithWarmupDays(days) }

// WithROIFraction overrides the region-of-interest threshold fraction
// (paper: 0.10 of the reference peak).
func WithROIFraction(f float64) EvalOption { return optimize.WithROIFraction(f) }

// RefKind selects the error definition: RefSlotMean is the paper's
// Eq. 7 (score against the mean power of the slot being budgeted),
// RefSlotStart is Eq. 6 (score against the next boundary sample).
type RefKind = optimize.RefKind

// Error-definition constants.
const (
	RefSlotMean  = optimize.RefSlotMean
	RefSlotStart = optimize.RefSlotStart
)

// SearchSpace is the (α, D, K) grid for exhaustive optimisation.
type SearchSpace = optimize.Space

// DefaultSearchSpace returns the paper's exhaustive space
// (α ∈ {0…1 step 0.1}, D ∈ [2,20], K ∈ [1,6]).
func DefaultSearchSpace() SearchSpace { return optimize.DefaultSpace() }

// ExperimentConfig scopes the paper-reproduction drivers.
type ExperimentConfig = experiments.Config

// PaperConfig returns the full-scale configuration of the paper's
// evaluation (six sites, 365 days, all five sampling rates).
func PaperConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig returns a reduced configuration suitable for
// smoke tests and benchmarks.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// CostModel is a per-operation cycle-cost model of the MSP430 platform.
type CostModel = mcu.CostModel

// MCU cost models: SoftFloatModel matches the paper's measured platform
// (emulated IEEE-754 on the F1611); FixedPointModel is this library's
// optimised Q16.16 port.
var (
	SoftFloatModel  = mcu.SoftFloat
	FixedPointModel = mcu.FixedQ16
)

// PredictionEnergyJ returns the modelled energy of one prediction run on
// the MCU for the given parameters.
func PredictionEnergyJ(p Params, m CostModel) (float64, error) {
	return mcu.PredictionEnergyJ(p, m)
}

// NodeConfig configures the closed-loop harvested-energy-management
// simulation (panel, storage, load, controller).
type NodeConfig = harvest.Config

// DefaultNodeConfig returns a plausible solar sensor-node configuration.
func DefaultNodeConfig() NodeConfig { return harvest.DefaultConfig() }

// SimulateNode runs the closed-loop energy-management simulation of a
// node driven by the given predictor over a slotted trace.
func SimulateNode(cfg NodeConfig, view *SlotView, pred SlotPredictor) (*harvest.Result, error) {
	return harvest.Simulate(cfg, view, pred)
}

// Candidate is one (α, K) arm of the online parameter-selection grid.
type Candidate = adaptive.Candidate

// Selector is a realizable (non-clairvoyant) dynamic parameter-selection
// policy — the future work the paper's Section IV-C motivates. Use it
// with Evaluator.AdaptiveEval.
type Selector = adaptive.Selector

// CandidateGrid builds the (α, K) candidate list for the online
// selection policies.
func CandidateGrid(alphas []float64, ks []int) ([]Candidate, error) {
	return adaptive.Grid(alphas, ks)
}

// Online parameter-selection policies over n candidates.
func NewFollowTheLeader(n int) (Selector, error) { return adaptive.NewFollowTheLeader(n) }

// NewDiscountedFTL creates follow-the-leader with exponential forgetting
// (gamma < 1 adapts to weather-regime drift).
func NewDiscountedFTL(n int, gamma float64) (Selector, error) {
	return adaptive.NewDiscounted(n, gamma)
}

// NewSlidingWindowSelector minimises loss over the last w slots.
func NewSlidingWindowSelector(n, w int) (Selector, error) {
	return adaptive.NewSlidingWindow(n, w)
}

// NewHedgeSelector creates the exponential-weights policy.
func NewHedgeSelector(n int, eta float64) (Selector, error) { return adaptive.NewHedge(n, eta) }

// FaultConfig parameterises a sensor/acquisition fault injector
// (dropouts, stuck sensors, spikes, gain drift).
type FaultConfig = faults.Config

// Fault kinds for FaultConfig.
const (
	FaultDropout     = faults.Dropout
	FaultStuckAtZero = faults.StuckAtZero
	FaultSpike       = faults.Spike
	FaultGainDrift   = faults.GainDrift
)

// InjectFault applies a fault model to a copy of the series.
func InjectFault(s *Series, cfg FaultConfig) (*Series, faults.Report, error) {
	return faults.Inject(s, cfg)
}

// FaultScenarios returns the representative deployment fault set used by
// the robustness experiment.
func FaultScenarios() []FaultConfig { return faults.Scenarios() }
