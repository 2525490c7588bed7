// Package harvest closes the loop the paper's Fig. 1 motivates: a solar
// panel charging an energy store that powers a duty-cycled sensor node,
// with an intelligent controller that uses the harvested-energy predictor
// to set the next slot's duty cycle. The paper evaluates the predictor in
// isolation; this substrate lets examples and benches show what a given
// prediction accuracy buys in system terms (downtime, utilisation,
// duty-cycle stability) — the quantities the referenced energy managers
// [2,3,5] optimise.
package harvest

import (
	"fmt"
	"math"

	"solarpred/internal/core"
	"solarpred/internal/timeseries"
)

// Panel converts irradiance (W/m²) to electrical power (W).
type Panel struct {
	// AreaM2 is the active cell area.
	AreaM2 float64
	// Efficiency is the end-to-end conversion efficiency including the
	// power-conditioning stage (Fig. 1).
	Efficiency float64
}

// Power returns the electrical power for a given irradiance.
func (p Panel) Power(irradiance float64) float64 {
	if irradiance < 0 {
		return 0
	}
	return irradiance * p.AreaM2 * p.Efficiency
}

// Validate checks the panel parameters.
func (p Panel) Validate() error {
	if !(p.AreaM2 > 0 && p.AreaM2 < math.Inf(1) && p.Efficiency > 0 && p.Efficiency <= 0.5) {
		return fmt.Errorf("harvest: implausible panel (area %.4f m², efficiency %.2f)", p.AreaM2, p.Efficiency)
	}
	return nil
}

// Storage is an idealised-but-lossy energy buffer (supercap or small
// LiPo).
type Storage struct {
	// CapacityJ is the usable capacity.
	CapacityJ float64
	// ChargeEfficiency is the fraction of harvested energy that reaches
	// the store.
	ChargeEfficiency float64
	// LeakagePerDay is the self-discharge fraction per day.
	LeakagePerDay float64

	levelJ float64
}

// NewStorage creates a store at the given initial fill fraction.
func NewStorage(capacityJ, chargeEff, leakPerDay, initialFrac float64) (*Storage, error) {
	if !(capacityJ > 0 && capacityJ < math.Inf(1)) {
		return nil, fmt.Errorf("harvest: capacity %.1f J must be positive and finite", capacityJ)
	}
	if !(chargeEff > 0 && chargeEff <= 1) {
		return nil, fmt.Errorf("harvest: charge efficiency %.2f out of (0,1]", chargeEff)
	}
	if !(leakPerDay >= 0 && leakPerDay < 1) {
		return nil, fmt.Errorf("harvest: leakage %.3f/day out of [0,1)", leakPerDay)
	}
	if !(initialFrac >= 0 && initialFrac <= 1) {
		return nil, fmt.Errorf("harvest: initial fill %.2f out of [0,1]", initialFrac)
	}
	return &Storage{
		CapacityJ:        capacityJ,
		ChargeEfficiency: chargeEff,
		LeakagePerDay:    leakPerDay,
		levelJ:           capacityJ * initialFrac,
	}, nil
}

// LevelJ returns the stored energy.
func (s *Storage) LevelJ() float64 { return s.levelJ }

// Fraction returns the fill fraction.
func (s *Storage) Fraction() float64 { return s.levelJ / s.CapacityJ }

// Charge adds harvested energy (before charging losses) and returns the
// energy wasted to overflow (after losses).
func (s *Storage) Charge(harvestedJ float64) (wastedJ float64) {
	if harvestedJ <= 0 {
		return 0
	}
	in := harvestedJ * s.ChargeEfficiency
	s.levelJ += in
	if s.levelJ > s.CapacityJ {
		wastedJ = s.levelJ - s.CapacityJ
		s.levelJ = s.CapacityJ
	}
	return wastedJ
}

// Discharge removes consumed energy; it returns the energy actually
// delivered, which is less than requested when the store runs dry.
func (s *Storage) Discharge(requestJ float64) float64 {
	if requestJ <= 0 {
		return 0
	}
	if requestJ >= s.levelJ {
		out := s.levelJ
		s.levelJ = 0
		return out
	}
	s.levelJ -= requestJ
	return requestJ
}

// Load is the duty-cycled sensor node.
type Load struct {
	// ActiveW is the consumption while on (sensing + radio).
	ActiveW float64
	// SleepW is the consumption while sleeping.
	SleepW float64
	// MinDuty and MaxDuty bound the controller's actuation range.
	MinDuty, MaxDuty float64
}

// Validate checks the load parameters.
func (l Load) Validate() error {
	if !(l.SleepW >= 0 && l.ActiveW > l.SleepW && l.ActiveW < math.Inf(1)) {
		return fmt.Errorf("harvest: implausible load (active %.4f W, sleep %.6f W)", l.ActiveW, l.SleepW)
	}
	if !(l.MinDuty >= 0 && l.MinDuty <= l.MaxDuty && l.MaxDuty <= 1) {
		return fmt.Errorf("harvest: duty bounds [%.2f,%.2f] invalid", l.MinDuty, l.MaxDuty)
	}
	return nil
}

// EnergyJ returns the node's consumption over a slot at a duty cycle.
func (l Load) EnergyJ(duty, slotSeconds float64) float64 {
	return (l.ActiveW*duty + l.SleepW*(1-duty)) * slotSeconds
}

// DutyForEnergy inverts EnergyJ, clamping into [MinDuty, MaxDuty].
func (l Load) DutyForEnergy(energyJ, slotSeconds float64) float64 {
	if slotSeconds <= 0 {
		return l.MinDuty
	}
	p := energyJ / slotSeconds
	d := (p - l.SleepW) / (l.ActiveW - l.SleepW)
	if d < l.MinDuty {
		return l.MinDuty
	}
	if d > l.MaxDuty {
		return l.MaxDuty
	}
	return d
}

// Controller sets the next slot's duty cycle from the predicted harvest
// and the storage state: spend the predicted income plus a correction
// that steers the store toward a target fill (Kansal-style energy-neutral
// operation with feedback).
type Controller struct {
	// TargetFraction is the storage fill the controller regulates toward.
	TargetFraction float64
	// FeedbackGain scales how aggressively the fill error is corrected
	// per slot (fraction of the error spent/saved each slot).
	FeedbackGain float64
}

// Validate checks controller parameters.
func (c Controller) Validate() error {
	if !(c.TargetFraction > 0 && c.TargetFraction < 1) {
		return fmt.Errorf("harvest: target fraction %.2f out of (0,1)", c.TargetFraction)
	}
	if !(c.FeedbackGain >= 0 && c.FeedbackGain <= 1) {
		return fmt.Errorf("harvest: feedback gain %.2f out of [0,1]", c.FeedbackGain)
	}
	return nil
}

// Duty returns the duty cycle for the coming slot.
func (c Controller) Duty(load Load, store *Storage, predictedHarvestJ, slotSeconds float64) float64 {
	budget := predictedHarvestJ
	errJ := store.LevelJ() - store.CapacityJ*c.TargetFraction
	budget += errJ * c.FeedbackGain
	if budget < 0 {
		budget = 0
	}
	return load.DutyForEnergy(budget, slotSeconds)
}

// Config bundles a complete node configuration.
type Config struct {
	Panel      Panel
	Load       Load
	Controller Controller
	// StorageCapacityJ etc. configure the store built per run.
	StorageCapacityJ float64
	ChargeEfficiency float64
	LeakagePerDay    float64
	InitialFraction  float64
}

// DefaultConfig returns a plausible solar sensor node: a 50 cm² panel at
// 15 % end-to-end efficiency, a 25 F-supercap-class store (~500 J), and a
// node drawing 60 mW active / 100 µW sleeping.
func DefaultConfig() Config {
	return Config{
		Panel: Panel{AreaM2: 50e-4, Efficiency: 0.15},
		Load:  Load{ActiveW: 60e-3, SleepW: 100e-6, MinDuty: 0.02, MaxDuty: 0.8},
		Controller: Controller{
			TargetFraction: 0.6,
			FeedbackGain:   0.05,
		},
		StorageCapacityJ: 500,
		ChargeEfficiency: 0.9,
		LeakagePerDay:    0.02,
		InitialFraction:  0.6,
	}
}

// Validate checks the full configuration. Every range check it runs is
// written as !(in range), so a NaN field fails it.
func (c Config) Validate() error {
	if err := c.Panel.Validate(); err != nil {
		return err
	}
	if err := c.Load.Validate(); err != nil {
		return err
	}
	if err := c.Controller.Validate(); err != nil {
		return err
	}
	if _, err := NewStorage(c.StorageCapacityJ, c.ChargeEfficiency, c.LeakagePerDay, c.InitialFraction); err != nil {
		return err
	}
	return nil
}

// Result summarises a closed-loop simulation.
type Result struct {
	Slots int
	// DownSlots counts slots where the store ran dry and the node
	// browned out below its requested duty.
	DownSlots int
	// WastedJ is harvest lost to storage overflow.
	WastedJ float64
	// HarvestedJ is the total available harvest energy (before charging
	// losses).
	HarvestedJ float64
	// ConsumedJ is the energy actually delivered to the load.
	ConsumedJ float64
	// MeanDuty and DutyStd describe the achieved duty cycle.
	MeanDuty float64
	DutyStd  float64
	// FinalFraction is the storage fill at the end.
	FinalFraction float64
}

// Downtime returns the fraction of slots with brown-out.
func (r Result) Downtime() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.DownSlots) / float64(r.Slots)
}

// Utilisation returns consumed / harvested energy.
func (r Result) Utilisation() float64 {
	if r.HarvestedJ == 0 {
		return 0
	}
	return r.ConsumedJ / r.HarvestedJ
}

// Sim is the closed-loop node simulation unrolled into an explicit
// per-slot step function: construct one with NewSim, feed it one
// (predicted power, actual mean power) pair per slot, read the Result
// when the trace ends. Step performs no allocation and Sim is a plain
// value, so a fleet worker can run millions of virtual nodes by stamping
// out one Sim per node on its stack while Simulate keeps wrapping the
// same arithmetic for the single-node drivers — both paths produce
// bit-identical results because Simulate is implemented on Step.
//
// Everything Step needs that is fixed for the node's life is computed
// once in NewSim: the slot length and the store's per-slot retention
// (1−LeakagePerDay)^(1/n), so a step costs a handful of multiplies and
// no transcendental call.
type Sim struct {
	cfg         Config
	store       Storage
	slotSeconds float64
	// retention is the fraction of stored energy left after one slot of
	// self-discharge; exactly 1 for a store that does not leak, which
	// makes the per-slot multiply an identity.
	retention float64

	res                Result
	dutySum, dutySumSq float64
}

// NewSim builds a simulation for a node with n slots per day. The
// returned Sim is ready for its first Step.
func NewSim(cfg Config, n int) (Sim, error) {
	if err := cfg.Validate(); err != nil {
		return Sim{}, err
	}
	if n <= 0 || timeseries.MinutesPerDay%n != 0 {
		return Sim{}, fmt.Errorf("harvest: %d slots do not divide a day", n)
	}
	store, err := NewStorage(cfg.StorageCapacityJ, cfg.ChargeEfficiency, cfg.LeakagePerDay, cfg.InitialFraction)
	if err != nil {
		return Sim{}, err
	}
	return Sim{
		cfg:         cfg,
		store:       *store,
		slotSeconds: float64(timeseries.MinutesPerDay/n) * 60,
		retention:   math.Pow(1-cfg.LeakagePerDay, 1/float64(n)),
	}, nil
}

// Step advances the node by one slot: the controller budgets the slot
// from predictedPower (the forecast harvest power in W/m² terms), the
// actual harvest actualMeanPower arrives, the load consumes, the store
// leaks. It returns the duty cycle the controller chose. Step allocates
// nothing.
func (s *Sim) Step(predictedPower, actualMeanPower float64) (duty float64) {
	predictedJ := s.cfg.Panel.Power(predictedPower) * s.slotSeconds
	duty = s.cfg.Controller.Duty(s.cfg.Load, &s.store, predictedJ, s.slotSeconds)

	// The slot unfolds: actual harvest arrives, load consumes.
	actualJ := s.cfg.Panel.Power(actualMeanPower) * s.slotSeconds
	s.res.HarvestedJ += actualJ
	s.res.WastedJ += s.store.Charge(actualJ)

	want := s.cfg.Load.EnergyJ(duty, s.slotSeconds)
	got := s.store.Discharge(want)
	s.res.ConsumedJ += got
	if got < want-1e-12 {
		s.res.DownSlots++
	}
	s.store.levelJ *= s.retention

	s.dutySum += duty
	s.dutySumSq += duty * duty
	s.res.Slots++
	return duty
}

// SlotSeconds returns the slot length in seconds — the factor converting
// a forecast power into the slot energy the controller budgets.
func (s *Sim) SlotSeconds() float64 { return s.slotSeconds }

// Storage exposes the live store (read-only use intended).
func (s *Sim) Storage() *Storage { return &s.store }

// Result finalises and returns the simulation summary for the slots
// stepped so far. It may be called repeatedly; each call summarises the
// current state.
func (s *Sim) Result() Result {
	res := s.res
	if res.Slots > 0 {
		res.MeanDuty = s.dutySum / float64(res.Slots)
		variance := s.dutySumSq/float64(res.Slots) - res.MeanDuty*res.MeanDuty
		if variance > 0 {
			res.DutyStd = math.Sqrt(variance)
		}
	}
	res.FinalFraction = s.store.Fraction()
	return res
}

// Simulate runs the node over a slotted irradiance trace using the given
// predictor to forecast each slot's harvest. The predictor observes the
// slot-start power sample (what the node's ADC measures) and its forecast
// ê(n+1) is converted to slot energy as ê·T, exactly the estimate the
// paper's Section III describes.
func Simulate(cfg Config, view *timeseries.SlotView, pred core.SlotPredictor) (*Result, error) {
	if view == nil || view.DaysCount == 0 {
		return nil, fmt.Errorf("harvest: empty trace")
	}
	if pred.N() != view.N {
		return nil, fmt.Errorf("harvest: predictor has %d slots/day, trace has %d", pred.N(), view.N)
	}
	sim, err := NewSim(cfg, view.N)
	if err != nil {
		return nil, err
	}
	total := view.TotalSlots()
	for t := 0; t < total; t++ {
		j := t % view.N
		if err := pred.Observe(j, view.Start[t]); err != nil {
			return nil, err
		}
		forecastPower, err := pred.Predict()
		if err != nil {
			return nil, err
		}
		day, slot := view.Split(t)
		sim.Step(forecastPower, view.MeanAt(day, slot))
	}
	res := sim.Result()
	return &res, nil
}
