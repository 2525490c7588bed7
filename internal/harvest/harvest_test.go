package harvest

import (
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/timeseries"
)

func TestPanel(t *testing.T) {
	p := Panel{AreaM2: 0.01, Efficiency: 0.2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Power(1000); math.Abs(got-2) > 1e-12 {
		t.Errorf("Power = %v, want 2 W", got)
	}
	if p.Power(-5) != 0 {
		t.Error("negative irradiance should give 0")
	}
	for _, bad := range []Panel{{0, 0.2}, {0.01, 0}, {0.01, 0.9}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad panel %+v accepted", bad)
		}
	}
}

func TestStorageValidation(t *testing.T) {
	cases := []struct {
		cap, eff, leak, init float64
	}{
		{0, 0.9, 0, 0.5},
		{100, 0, 0, 0.5},
		{100, 1.1, 0, 0.5},
		{100, 0.9, -0.1, 0.5},
		{100, 0.9, 1, 0.5},
		{100, 0.9, 0, -0.1},
		{100, 0.9, 0, 1.1},
	}
	for i, c := range cases {
		if _, err := NewStorage(c.cap, c.eff, c.leak, c.init); err == nil {
			t.Errorf("bad storage %d accepted", i)
		}
	}
}

// TestConfigValidateRejects covers Config.Validate field by field: NaN in
// any float field, and infinite sizes, must be rejected, by Validate and
// by NewSim.
func TestConfigValidateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]func(*Config){
		"area NaN":            func(c *Config) { c.Panel.AreaM2 = nan },
		"area +Inf":           func(c *Config) { c.Panel.AreaM2 = inf },
		"efficiency NaN":      func(c *Config) { c.Panel.Efficiency = nan },
		"active NaN":          func(c *Config) { c.Load.ActiveW = nan },
		"active +Inf":         func(c *Config) { c.Load.ActiveW = inf },
		"sleep NaN":           func(c *Config) { c.Load.SleepW = nan },
		"min duty NaN":        func(c *Config) { c.Load.MinDuty = nan },
		"max duty NaN":        func(c *Config) { c.Load.MaxDuty = nan },
		"target NaN":          func(c *Config) { c.Controller.TargetFraction = nan },
		"gain NaN":            func(c *Config) { c.Controller.FeedbackGain = nan },
		"capacity NaN":        func(c *Config) { c.StorageCapacityJ = nan },
		"capacity +Inf":       func(c *Config) { c.StorageCapacityJ = inf },
		"charge eff NaN":      func(c *Config) { c.ChargeEfficiency = nan },
		"leakage NaN":         func(c *Config) { c.LeakagePerDay = nan },
		"initial fill NaN":    func(c *Config) { c.InitialFraction = nan },
		"capacity zero":       func(c *Config) { c.StorageCapacityJ = 0 },
		"sleep above active":  func(c *Config) { c.Load.SleepW = c.Load.ActiveW },
		"min above max duty":  func(c *Config) { c.Load.MinDuty = c.Load.MaxDuty + 0.01 },
		"max duty above one":  func(c *Config) { c.Load.MaxDuty = 1.01 },
		"target fraction one": func(c *Config) { c.Controller.TargetFraction = 1 },
		"gain above one":      func(c *Config) { c.Controller.FeedbackGain = 1.5 },
	}
	for name, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, err := NewSim(cfg, 48); err == nil {
			t.Errorf("%s: NewSim accepted it", name)
		}
	}
}

func TestStorageChargeDischarge(t *testing.T) {
	s, err := NewStorage(100, 0.5, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.LevelJ() != 50 || s.Fraction() != 0.5 {
		t.Fatal("initial level")
	}
	// Charge 40 J at 50% efficiency → +20 J.
	if w := s.Charge(40); w != 0 {
		t.Errorf("unexpected overflow %v", w)
	}
	if s.LevelJ() != 70 {
		t.Errorf("level = %v, want 70", s.LevelJ())
	}
	// Overfill: 100 J at 50% → +50, 20 wasted.
	if w := s.Charge(100); math.Abs(w-20) > 1e-12 {
		t.Errorf("wasted = %v, want 20", w)
	}
	if s.LevelJ() != 100 {
		t.Error("should be full")
	}
	if got := s.Discharge(30); got != 30 {
		t.Errorf("discharge = %v", got)
	}
	// Draining more than stored browns out.
	if got := s.Discharge(1000); math.Abs(got-70) > 1e-12 {
		t.Errorf("brown-out delivered %v, want 70", got)
	}
	if s.LevelJ() != 0 {
		t.Error("should be empty")
	}
	if s.Charge(0) != 0 || s.Discharge(0) != 0 {
		t.Error("zero ops should be no-ops")
	}
	if s.Charge(-5) != 0 || s.Discharge(-5) != 0 {
		t.Error("negative ops should be no-ops")
	}
}

// TestStorageLeak checks self-discharge through the node-slot: a node
// that neither harvests nor consumes keeps (1−LeakagePerDay)^days of its
// store, and a store that does not leak keeps its level exactly.
func TestStorageLeak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load = Load{ActiveW: 0.1, SleepW: 0, MinDuty: 0, MaxDuty: 1}
	cfg.Controller.FeedbackGain = 0
	cfg.StorageCapacityJ = 100
	cfg.InitialFraction = 1
	const n = 48
	for _, tc := range []struct{ leak, halfDay, day float64 }{
		{0.5, 100 * math.Sqrt(0.5), 50},
		{0.19, 90, 81},
		{0, 100, 100},
	} {
		cfg.LeakagePerDay = tc.leak
		sim, err := NewSim(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []float64{tc.halfDay, tc.day} {
			for i := 0; i < n/2; i++ {
				sim.Step(0, 0)
			}
			if got := sim.Storage().LevelJ(); math.Abs(got-want) > 1e-9 {
				t.Errorf("leak %.2f/day after %d slots: level %v, want %v", tc.leak, sim.Result().Slots, got, want)
			}
		}
		if tc.leak == 0 && sim.Storage().LevelJ() != 100 {
			t.Errorf("non-leaking store changed level to %v", sim.Storage().LevelJ())
		}
		if res := sim.Result(); res.ConsumedJ != 0 || res.HarvestedJ != 0 {
			t.Errorf("idle node moved energy: %+v", res)
		}
	}
}

func TestLoadEnergyAndDuty(t *testing.T) {
	l := Load{ActiveW: 0.1, SleepW: 0.001, MinDuty: 0.05, MaxDuty: 0.9}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	e := l.EnergyJ(0.5, 100)
	want := (0.1*0.5 + 0.001*0.5) * 100
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("EnergyJ = %v, want %v", e, want)
	}
	// DutyForEnergy inverts within bounds.
	if d := l.DutyForEnergy(e, 100); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("DutyForEnergy = %v, want 0.5", d)
	}
	if d := l.DutyForEnergy(1e9, 100); d != 0.9 {
		t.Errorf("excess budget should clamp to MaxDuty, got %v", d)
	}
	if d := l.DutyForEnergy(0, 100); d != 0.05 {
		t.Errorf("zero budget should clamp to MinDuty, got %v", d)
	}
	if d := l.DutyForEnergy(5, 0); d != 0.05 {
		t.Error("zero slot time should clamp to MinDuty")
	}
	bad := []Load{
		{ActiveW: 0, SleepW: 0, MinDuty: 0, MaxDuty: 1},
		{ActiveW: 0.001, SleepW: 0.01, MinDuty: 0, MaxDuty: 1},
		{ActiveW: 0.1, SleepW: 0.001, MinDuty: 0.5, MaxDuty: 0.2},
		{ActiveW: 0.1, SleepW: 0.001, MinDuty: -0.1, MaxDuty: 0.9},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad load %d accepted", i)
		}
	}
}

func TestControllerSteersTowardTarget(t *testing.T) {
	c := Controller{TargetFraction: 0.5, FeedbackGain: 0.1}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	l := Load{ActiveW: 0.1, SleepW: 0.001, MinDuty: 0, MaxDuty: 1}
	full, _ := NewStorage(1000, 1, 0, 0.9)
	low, _ := NewStorage(1000, 1, 0, 0.1)
	slotS := 1800.0
	predJ := 20.0
	dFull := c.Duty(l, full, predJ, slotS)
	dLow := c.Duty(l, low, predJ, slotS)
	if dFull <= dLow {
		t.Errorf("surplus store should spend more: %v vs %v", dFull, dLow)
	}
	for _, bad := range []Controller{{0, 0.1}, {1, 0.1}, {0.5, -0.1}, {0.5, 1.5}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad controller %+v accepted", bad)
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func simView(t *testing.T, days int) *timeseries.SlotView {
	t.Helper()
	site, err := dataset.SiteByName("NPCS")
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, days)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestSimulateRunsAndConserves(t *testing.T) {
	view := simView(t, 20)
	cfg := DefaultConfig()
	pred, err := core.New(48, core.Params{Alpha: 0.7, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, view, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != view.TotalSlots() {
		t.Fatalf("slots = %d", res.Slots)
	}
	if res.HarvestedJ <= 0 {
		t.Fatal("no harvest on a desert trace")
	}
	if res.ConsumedJ <= 0 {
		t.Fatal("no consumption")
	}
	// Energy accounting: consumed + final-store + waste cannot exceed
	// harvested(after losses) + initial store.
	initial := cfg.StorageCapacityJ * cfg.InitialFraction
	maxAvailable := res.HarvestedJ*cfg.ChargeEfficiency + initial
	if res.ConsumedJ > maxAvailable {
		t.Errorf("consumed %v exceeds available %v", res.ConsumedJ, maxAvailable)
	}
	if res.MeanDuty < cfg.Load.MinDuty || res.MeanDuty > cfg.Load.MaxDuty {
		t.Errorf("mean duty %v outside bounds", res.MeanDuty)
	}
	if res.FinalFraction < 0 || res.FinalFraction > 1 {
		t.Errorf("final fraction %v", res.FinalFraction)
	}
	if res.Downtime() < 0 || res.Downtime() > 1 {
		t.Errorf("downtime %v", res.Downtime())
	}
	if res.Utilisation() < 0 {
		t.Errorf("utilisation %v", res.Utilisation())
	}
}

func TestSimulateValidation(t *testing.T) {
	view := simView(t, 5)
	cfg := DefaultConfig()
	pred, _ := core.New(48, core.Params{Alpha: 0.7, D: 3, K: 1})
	bad := cfg
	bad.StorageCapacityJ = 0
	if _, err := Simulate(bad, view, pred); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := Simulate(cfg, nil, pred); err == nil {
		t.Error("nil view accepted")
	}
	wrongN, _ := core.New(24, core.Params{Alpha: 0.7, D: 3, K: 1})
	if _, err := Simulate(cfg, view, wrongN); err == nil {
		t.Error("slot mismatch accepted")
	}
}

// TestPredictionQualityMatters is the motivating system-level result: a
// good predictor yields less downtime or better utilisation than a
// deliberately bad one (always predicting the trace peak, which drains
// the store at night).
func TestPredictionQualityMatters(t *testing.T) {
	view := simView(t, 30)
	cfg := DefaultConfig()

	good, err := core.New(48, core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	resGood, err := Simulate(cfg, view, good)
	if err != nil {
		t.Fatal(err)
	}

	resBad, err := Simulate(cfg, view, &overPredictor{n: 48, value: view.PeakMean()})
	if err != nil {
		t.Fatal(err)
	}
	if resGood.DownSlots >= resBad.DownSlots {
		t.Errorf("good predictor downtime %d should beat over-predictor %d",
			resGood.DownSlots, resBad.DownSlots)
	}
}

// overPredictor always forecasts a fixed (large) power.
type overPredictor struct {
	n     int
	value float64
	slot  int
}

func (o *overPredictor) Observe(slot int, power float64) error {
	o.slot = slot
	return nil
}
func (o *overPredictor) Predict() (float64, error) { return o.value, nil }
func (o *overPredictor) N() int                    { return o.n }

func TestResultAccessorsOnZero(t *testing.T) {
	var r Result
	if r.Downtime() != 0 || r.Utilisation() != 0 {
		t.Error("zero result accessors")
	}
}
