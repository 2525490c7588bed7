package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mkSeries builds a series of `days` days at `res` minutes where sample i
// of day d has value d*1000 + i, making indices easy to verify.
func mkSeries(t *testing.T, res, days int) *Series {
	t.Helper()
	perDay := MinutesPerDay / res
	samples := make([]float64, perDay*days)
	for d := 0; d < days; d++ {
		for i := 0; i < perDay; i++ {
			samples[d*perDay+i] = float64(d*1000 + i)
		}
	}
	s, err := New(res, samples)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("zero resolution should error")
	}
	if _, err := New(7, nil); err == nil {
		t.Error("resolution not dividing a day should error")
	}
	if _, err := New(5, make([]float64, 100)); err == nil {
		t.Error("partial day should error")
	}
	if _, err := New(5, make([]float64, 288*2)); err != nil {
		t.Errorf("two whole days should be fine: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	s := mkSeries(t, 5, 3)
	if s.SamplesPerDay() != 288 {
		t.Fatalf("SamplesPerDay = %d", s.SamplesPerDay())
	}
	if s.Days() != 3 {
		t.Fatalf("Days = %d", s.Days())
	}
	day, err := s.Day(1)
	if err != nil || len(day) != 288 || day[0] != 1000 {
		t.Fatalf("Day(1) = %v.. err %v", day[:1], err)
	}
	if _, err := s.Day(3); err == nil {
		t.Error("out-of-range day should error")
	}
	v, err := s.At(2, 5)
	if err != nil || v != 2005 {
		t.Errorf("At(2,5) = %v err %v", v, err)
	}
	if _, err := s.At(0, 288); err == nil {
		t.Error("out-of-range sample should error")
	}
	if s.Peak() != 2287 {
		t.Errorf("Peak = %v", s.Peak())
	}
}

func TestResampleAveragesGroups(t *testing.T) {
	// 1-minute data: values 0..1439 on one day.
	samples := make([]float64, 1440)
	for i := range samples {
		samples[i] = float64(i)
	}
	s, _ := New(1, samples)
	r, err := s.Resample(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.SamplesPerDay() != 288 {
		t.Fatalf("resampled perDay = %d", r.SamplesPerDay())
	}
	// First group 0..4 averages to 2.
	if r.Samples[0] != 2 {
		t.Errorf("first group mean = %v, want 2", r.Samples[0])
	}
	if r.Samples[287] != 1437 {
		t.Errorf("last group mean = %v, want 1437", r.Samples[287])
	}
	if _, err := s.Resample(7); err == nil {
		t.Error("resample to non-divisor-of-day should error")
	}
	if _, err := s.Resample(0); err == nil {
		t.Error("resample to 0 should error")
	}
}

func TestResampleIdentityCopies(t *testing.T) {
	s := mkSeries(t, 5, 1)
	r, err := s.Resample(5)
	if err != nil {
		t.Fatal(err)
	}
	r.Samples[0] = -1
	if s.Samples[0] == -1 {
		t.Error("identity resample must copy, not alias")
	}
}

func TestDecimateKeepsSlotStart(t *testing.T) {
	samples := make([]float64, 1440)
	for i := range samples {
		samples[i] = float64(i)
	}
	s, _ := New(1, samples)
	d, err := s.Decimate(30)
	if err != nil {
		t.Fatal(err)
	}
	if d.SamplesPerDay() != 48 {
		t.Fatalf("decimated perDay = %d", d.SamplesPerDay())
	}
	if d.Samples[0] != 0 || d.Samples[1] != 30 || d.Samples[47] != 1410 {
		t.Errorf("decimated samples = %v %v %v", d.Samples[0], d.Samples[1], d.Samples[47])
	}
	if _, err := s.Decimate(7); err == nil {
		t.Error("bad decimation should error")
	}
}

func TestSlotViewBasics(t *testing.T) {
	// One day of 1-min data: constant 10 in slot 0, ramp in slot 1, etc.
	samples := make([]float64, 1440)
	for i := range samples {
		samples[i] = float64(i % 30) // each 30-min slot sees 0..29
	}
	s, _ := New(1, samples)
	v, err := s.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 48 || v.M != 30 || v.DaysCount != 1 || v.SlotMinutes != 30 {
		t.Fatalf("slot view dims: %+v", v)
	}
	if v.StartAt(0, 0) != 0 {
		t.Errorf("StartAt = %v", v.StartAt(0, 0))
	}
	if v.MeanAt(0, 0) != 14.5 {
		t.Errorf("MeanAt = %v, want 14.5", v.MeanAt(0, 0))
	}
	if v.SlotEnergy(0, 0) != 14.5*30 {
		t.Errorf("SlotEnergy = %v", v.SlotEnergy(0, 0))
	}
	if v.PeakMean() != 14.5 {
		t.Errorf("PeakMean = %v", v.PeakMean())
	}
	if v.TotalSlots() != 48 {
		t.Error("TotalSlots mismatch")
	}
}

func TestPeakAndMeanHelpers(t *testing.T) {
	if mean(nil) != 0 || maxOrZero(nil) != 0 {
		t.Error("empty slice must give zero")
	}
	if got := mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %v", got)
	}
	if got := maxOrZero([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("maxOrZero = %v", got)
	}
	// Slot j of a one-day, 1-min trace starts at power j.
	samples := make([]float64, 1440)
	for i := range samples {
		samples[i] = float64(i / 30)
	}
	s, _ := New(1, samples)
	v, err := s.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	if v.PeakStart() != 47 || v.PeakMean() != 47 {
		t.Errorf("PeakStart = %v, PeakMean = %v, want 47", v.PeakStart(), v.PeakMean())
	}
}

func TestSlotValidation(t *testing.T) {
	s := mkSeries(t, 5, 1) // 288 samples/day
	if _, err := s.Slot(0); err == nil {
		t.Error("zero slots should error")
	}
	if _, err := s.Slot(100); err == nil {
		t.Error("non-divisor slot count should error")
	}
	for _, n := range []int{288, 96, 72, 48, 24} {
		if _, err := s.Slot(n); err != nil {
			t.Errorf("Slot(%d): %v", n, err)
		}
	}
}

func TestSlotIndexRoundTrip(t *testing.T) {
	s := mkSeries(t, 5, 4)
	v, _ := s.Slot(48)
	for _, tc := range []struct{ d, j int }{{0, 0}, {1, 5}, {3, 47}} {
		g := tc.d*v.N + tc.j
		d, j := v.Split(g)
		if d != tc.d || j != tc.j {
			t.Errorf("roundtrip (%d,%d) -> %d -> (%d,%d)", tc.d, tc.j, g, d, j)
		}
	}
}

func TestSlotStartMatchesDecimate(t *testing.T) {
	// Property: slot-start samples equal decimation to the slot length.
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 1440*3)
	for i := range samples {
		samples[i] = rng.Float64() * 900
	}
	s, _ := New(1, samples)
	for _, n := range []int{288, 96, 72, 48, 24} {
		v, err := s.Slot(n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Decimate(MinutesPerDay / n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Samples {
			if v.Start[i] != d.Samples[i] {
				t.Fatalf("n=%d: slot start %d mismatch", n, i)
			}
		}
	}
}

func TestSlotMeanPreservesEnergy(t *testing.T) {
	// Property: total energy from slot means equals total energy from raw
	// samples (both are resolution-weighted sums).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]float64, 1440)
		for i := range samples {
			samples[i] = rng.Float64() * 1000
		}
		s, _ := New(1, samples)
		var raw float64
		for _, x := range samples {
			raw += x // 1 minute each
		}
		v, _ := s.Slot(48)
		var slotted float64
		for j := 0; j < 48; j++ {
			slotted += v.SlotEnergy(0, j)
		}
		return math.Abs(raw-slotted) < 1e-6*(1+raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResampleThenSlotConsistency(t *testing.T) {
	// Slotting 1-min data into N slots must give the same means as first
	// resampling to 5 min and then slotting, because mean-of-means over
	// equal groups equals the overall mean.
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 1440*2)
	for i := range samples {
		samples[i] = rng.Float64() * 800
	}
	s1, _ := New(1, samples)
	s5, err := s1.Resample(5)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s1.Slot(48)
	v5, _ := s5.Slot(48)
	for i := range v1.Mean {
		if math.Abs(v1.Mean[i]-v5.Mean[i]) > 1e-9 {
			t.Fatalf("mean mismatch at %d: %v vs %v", i, v1.Mean[i], v5.Mean[i])
		}
	}
}

func TestSlotBuildsPrefixColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	days, perDay := 6, 288
	samples := make([]float64, days*perDay)
	for i := range samples {
		samples[i] = rng.Float64() * 900
	}
	s, err := New(5, samples)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	if !v.HasPrefix() {
		t.Fatal("Slot must build the prefix column")
	}
	// Every windowed mean must equal the direct D-term average.
	for _, D := range []int{1, 2, 5} {
		for d := D; d <= days; d++ {
			for j := 0; j < v.N; j += 7 {
				var sumS float64
				for dd := d - D; dd < d; dd++ {
					sumS += v.StartAt(dd, j)
				}
				if got, want := v.WindowStartMean(d, j, D), sumS/float64(D); math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("WindowStartMean(%d,%d,%d) = %v, want %v", d, j, D, got, want)
				}
			}
		}
	}
}

func TestBuildPrefixOnHandAssembledView(t *testing.T) {
	v := &SlotView{N: 2, M: 1, DaysCount: 3, SlotMinutes: 720,
		Start: []float64{1, 2, 3, 4, 5, 6},
		Mean:  []float64{1, 2, 3, 4, 5, 6},
	}
	if v.HasPrefix() {
		t.Fatal("hand-assembled view should have no prefix yet")
	}
	v.BuildPrefix()
	if !v.HasPrefix() {
		t.Fatal("BuildPrefix did not size the column")
	}
	if got := v.WindowStartMean(3, 0, 3); math.Abs(got-3) > 1e-12 {
		t.Errorf("WindowStartMean = %v, want 3", got)
	}
	if got := v.WindowStartMean(2, 1, 2); math.Abs(got-3) > 1e-12 {
		t.Errorf("WindowStartMean(2, 1, 2) = %v, want 3", got)
	}
}
