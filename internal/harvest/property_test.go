package harvest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
)

// TestStorageNeverExceedsBounds: no sequence of charge/discharge/leak
// operations can push the level outside [0, capacity].
func TestStorageNeverExceedsBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStorage(100+rng.Float64()*900, 0.5+rng.Float64()*0.5, rng.Float64()*0.2, rng.Float64())
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0:
				s.Charge(rng.Float64() * 200)
			case 1:
				s.Discharge(rng.Float64() * 200)
			case 2:
				leakRef(s, rng.Float64())
			}
			if s.LevelJ() < 0 || s.LevelJ() > s.CapacityJ+1e-9 {
				return false
			}
			if fr := s.Fraction(); fr < 0 || fr > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStorageEnergyConservation: delivered + level-change + overflow
// accounts exactly for charged (post-efficiency) minus leakage.
func TestStorageEnergyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStorage(500, 0.8, 0, 0.5) // no leak: exact accounting
		if err != nil {
			return false
		}
		level := s.LevelJ()
		var inPost, out, wasted float64
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				raw := rng.Float64() * 100
				w := s.Charge(raw)
				inPost += raw * 0.8
				wasted += w
			} else {
				out += s.Discharge(rng.Float64() * 100)
			}
		}
		balance := level + inPost - out - wasted
		return math.Abs(balance-s.LevelJ()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSimulationEnergyBalance: over a full simulation, the node cannot
// consume more than harvested×efficiency plus the initial store, and the
// final level is consistent with the flows.
func TestSimulationEnergyBalance(t *testing.T) {
	site, err := dataset.SiteByName("PFCI")
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, 25)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(24)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.StorageCapacityJ = 200 + rng.Float64()*800
		cfg.InitialFraction = rng.Float64()
		cfg.LeakagePerDay = rng.Float64() * 0.05
		pred, err := core.New(24, core.Params{Alpha: 0.5 + rng.Float64()*0.4, D: 2 + rng.Intn(8), K: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		res, err := Simulate(cfg, view, pred)
		if err != nil {
			return false
		}
		initial := cfg.StorageCapacityJ * cfg.InitialFraction
		available := res.HarvestedJ*cfg.ChargeEfficiency + initial
		if res.ConsumedJ > available+1e-6 {
			return false
		}
		if res.WastedJ < 0 || res.FinalFraction < 0 || res.FinalFraction > 1 {
			return false
		}
		return res.MeanDuty >= cfg.Load.MinDuty-1e-12 && res.MeanDuty <= cfg.Load.MaxDuty+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBiggerStoreNeverIncreasesDowntime on a fixed trace and predictor.
func TestBiggerStoreNeverIncreasesDowntime(t *testing.T) {
	site, err := dataset.SiteByName("HSU")
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, 30)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, capacity := range []float64{100, 300, 900, 2700} {
		cfg := DefaultConfig()
		cfg.StorageCapacityJ = capacity
		pred, err := core.New(48, core.Params{Alpha: 0.7, D: 10, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(cfg, view, pred)
		if err != nil {
			t.Fatal(err)
		}
		if res.Downtime() > prev+0.02 {
			t.Fatalf("capacity %.0f J: downtime %.3f worse than smaller store %.3f",
				capacity, res.Downtime(), prev)
		}
		prev = res.Downtime()
	}
}
