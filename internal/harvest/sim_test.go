package harvest

import (
	"encoding/binary"
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/timeseries"
)

// stepView generates a small slotted trace for the step-function tests.
func stepView(t testing.TB, site string, days, n int) *timeseries.SlotView {
	t.Helper()
	s, err := dataset.SiteByName(site)
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(s, days)
	if err != nil {
		t.Fatal(err)
	}
	v, err := series.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSimMatchesSimulate drives a Sim by hand through the exact protocol
// Simulate follows and checks the two summaries are bit-identical —
// the contract that lets the fleet simulator reuse the step function
// without forking the closed-loop arithmetic.
func TestSimMatchesSimulate(t *testing.T) {
	v := stepView(t, "NPCS", 10, 24)
	cfg := DefaultConfig()

	pred, err := core.New(v.N, core.Params{Alpha: 0.7, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(cfg, v, pred)
	if err != nil {
		t.Fatal(err)
	}

	pred2, err := core.New(v.N, core.Params{Alpha: 0.7, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, v.N)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < v.TotalSlots(); tt++ {
		j := tt % v.N
		if err := pred2.Observe(j, v.Start[tt]); err != nil {
			t.Fatal(err)
		}
		f, err := pred2.Predict()
		if err != nil {
			t.Fatal(err)
		}
		day, slot := v.Split(tt)
		sim.Step(f, v.MeanAt(day, slot))
	}
	got := sim.Result()
	if got != *want {
		t.Fatalf("step loop diverged from Simulate:\n got %+v\nwant %+v", got, *want)
	}
}

// TestSimStepAllocationFree pins the fleet-scale contract: stepping a
// node costs zero heap allocations.
func TestSimStepAllocationFree(t *testing.T) {
	sim, err := NewSim(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sim.Step(42.0, 40.0)
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSimResultMidRun checks Result is a non-destructive snapshot: it
// can be read mid-run and again at the end.
func TestSimResultMidRun(t *testing.T) {
	sim, err := NewSim(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sim.Step(30, 30)
	}
	mid := sim.Result()
	if mid.Slots != 10 {
		t.Fatalf("mid-run Slots = %d, want 10", mid.Slots)
	}
	for i := 0; i < 10; i++ {
		sim.Step(30, 30)
	}
	end := sim.Result()
	if end.Slots != 20 {
		t.Fatalf("end Slots = %d, want 20", end.Slots)
	}
	if end.HarvestedJ <= mid.HarvestedJ {
		t.Fatal("harvest total did not grow")
	}
}

// TestNewSimRejects covers the constructor's validation.
func TestNewSimRejects(t *testing.T) {
	if _, err := NewSim(Config{}, 24); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSim(DefaultConfig(), 7); err == nil {
		t.Error("slots not dividing a day accepted")
	}
	if _, err := NewSim(DefaultConfig(), 0); err == nil {
		t.Error("zero slots accepted")
	}
}

// leakRef is store self-discharge as the node-slot computed it before
// NewSim hoisted the per-slot retention factor: one Pow per call,
// skipped for a store that does not leak.
func leakRef(s *Storage, days float64) {
	if days <= 0 || s.LeakagePerDay == 0 {
		return
	}
	s.levelJ *= math.Pow(1-s.LeakagePerDay, days)
}

// refSim is the reference node-slot: Step's arithmetic over a hand-built
// Storage, leaking through leakRef every slot.
type refSim struct {
	cfg                Config
	store              *Storage
	slotSeconds        float64
	n                  int
	res                Result
	dutySum, dutySumSq float64
}

func (s *refSim) step(predictedPower, actualMeanPower float64) float64 {
	predictedJ := s.cfg.Panel.Power(predictedPower) * s.slotSeconds
	duty := s.cfg.Controller.Duty(s.cfg.Load, s.store, predictedJ, s.slotSeconds)
	actualJ := s.cfg.Panel.Power(actualMeanPower) * s.slotSeconds
	s.res.HarvestedJ += actualJ
	s.res.WastedJ += s.store.Charge(actualJ)
	want := s.cfg.Load.EnergyJ(duty, s.slotSeconds)
	got := s.store.Discharge(want)
	s.res.ConsumedJ += got
	if got < want-1e-12 {
		s.res.DownSlots++
	}
	leakRef(s.store, 1/float64(s.n))
	s.dutySum += duty
	s.dutySumSq += duty * duty
	s.res.Slots++
	return duty
}

func (s *refSim) result() Result {
	res := s.res
	if res.Slots > 0 {
		res.MeanDuty = s.dutySum / float64(res.Slots)
		if variance := s.dutySumSq/float64(res.Slots) - res.MeanDuty*res.MeanDuty; variance > 0 {
			res.DutyStd = math.Sqrt(variance)
		}
	}
	res.FinalFraction = s.store.Fraction()
	return res
}

// fuzzPower maps 8 fuzz bytes onto a power in [-100, 1300) W/m² with
// full mantissa variety: night, overcast and clear-sky slots, plus the
// negative readings Panel.Power clamps.
func fuzzPower(b []byte) float64 {
	return float64(binary.LittleEndian.Uint64(b)>>11)/(1<<53)*1400 - 100
}

// FuzzSimStepMatchesLeakReference is the differential test for the
// hoisted leak: for any leakage in [0,1), any slots-per-day and any
// stream of (predicted, actual) powers, Sim must return the same duty
// every slot and the same Result, bit for bit, as the per-slot Pow
// reference.
func FuzzSimStepMatchesLeakReference(f *testing.F) {
	seed := make([]byte, 16*96)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(0.0, uint8(0), uint8(120), seed)
	f.Add(0.02, uint8(1), uint8(60), seed)
	f.Add(0.5, uint8(2), uint8(5), seed)
	f.Add(0.999, uint8(3), uint8(255), seed)
	f.Add(1e-17, uint8(1), uint8(0), seed) // 1−L rounds to 1
	f.Fuzz(func(t *testing.T, leak float64, nSel, capSel uint8, powers []byte) {
		leak = math.Abs(math.Mod(leak, 1))
		if math.IsNaN(leak) {
			leak = 0
		}
		n := []int{24, 48, 96, 288}[nSel%4]
		cfg := DefaultConfig()
		cfg.LeakagePerDay = leak
		cfg.StorageCapacityJ = 5 + 4*float64(capSel)
		sim, err := NewSim(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStorage(cfg.StorageCapacityJ, cfg.ChargeEfficiency, leak, cfg.InitialFraction)
		if err != nil {
			t.Fatal(err)
		}
		ref := refSim{cfg: cfg, store: store, slotSeconds: sim.SlotSeconds(), n: n}
		for slot := 0; len(powers) >= 16 && slot < 4096; slot++ {
			pred, actual := fuzzPower(powers), fuzzPower(powers[8:])
			powers = powers[16:]
			if got, want := sim.Step(pred, actual), ref.step(pred, actual); got != want {
				t.Fatalf("slot %d (L=%g, n=%d): duty %v, reference %v", slot, leak, n, got, want)
			}
		}
		if got, want := sim.Result(), ref.result(); got != want {
			t.Fatalf("L=%g, n=%d: result diverged from the per-slot Pow reference:\n got %+v\nwant %+v", leak, n, got, want)
		}
	})
}

// BenchmarkSimStep times one node-slot of the closed loop over a month
// of 48-slot days, forecasting each slot by its observed start power.
func BenchmarkSimStep(b *testing.B) {
	v := stepView(b, "NPCS", 30, 48)
	sim, err := NewSim(DefaultConfig(), v.N)
	if err != nil {
		b.Fatal(err)
	}
	total := v.TotalSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		sim.Step(v.Start[t], v.Mean[t])
	}
	benchResult = sim.Result()
}

// benchResult keeps the benchmarked steps observable to the compiler.
var benchResult Result
