package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzResolutions are the recording resolutions the fuzz targets draw
// from (all divide a day).
var fuzzResolutions = []int{1, 5, 15, 30, 60, 120}

// fuzzSeries builds a series with pseudo-random powers, injecting NaN and
// negative samples at the requested per-mille rates, so the prefix-sum
// machinery is exercised on exactly the inputs the stats package calls
// programming errors.
func fuzzSeries(resIdx, days uint8, seed int64, nanPerMille, negPerMille uint8) (*Series, bool) {
	res := fuzzResolutions[int(resIdx)%len(fuzzResolutions)]
	d := 1 + int(days)%40
	perDay := MinutesPerDay / res
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, perDay*d)
	for i := range samples {
		switch {
		case rng.Intn(1000) < int(nanPerMille)%50:
			samples[i] = math.NaN()
		case rng.Intn(1000) < int(negPerMille)%200:
			samples[i] = -rng.Float64() * 100
		default:
			samples[i] = rng.Float64() * 1200
		}
	}
	s, err := New(res, samples)
	if err != nil {
		return nil, false
	}
	return s, true
}

// divisorsOf returns the divisors of perDay in ascending order.
func divisorsOf(perDay int) []int {
	var ds []int
	for n := 1; n <= perDay; n++ {
		if perDay%n == 0 {
			ds = append(ds, n)
		}
	}
	return ds
}

// FuzzSlotWindowMeans checks the slotting and prefix-sum construction:
// for random day lengths, sampling rates and sample values (including NaN
// and negative powers) the O(1) prefix-sum windowed start means must
// match a naive O(D) reference, and a NaN reaching a window must surface as NaN
// rather than a finite value.
func FuzzSlotWindowMeans(f *testing.F) {
	f.Add(uint8(1), uint8(30), int64(1), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(40), int64(2), uint8(10), uint8(50))
	f.Add(uint8(3), uint8(3), int64(3), uint8(49), uint8(199))
	f.Add(uint8(5), uint8(0), int64(4), uint8(0), uint8(120))
	f.Fuzz(func(t *testing.T, resIdx, days uint8, seed int64, nanPM, negPM uint8) {
		s, ok := fuzzSeries(resIdx, days, seed, nanPM, negPM)
		if !ok {
			t.Skip()
		}
		perDay := s.SamplesPerDay()
		divs := divisorsOf(perDay)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := divs[rng.Intn(len(divs))]
		v, err := s.Slot(n)
		if err != nil {
			t.Fatalf("slot %d of %d/day: %v", n, perDay, err)
		}
		if !v.HasPrefix() {
			t.Fatal("Slot did not build the prefix column")
		}
		// Slot geometry and cell values against the raw trace.
		m := perDay / n
		for probe := 0; probe < 32; probe++ {
			d := rng.Intn(v.DaysCount)
			j := rng.Intn(n)
			seg := s.Samples[d*perDay+j*m : d*perDay+(j+1)*m]
			if got, want := v.StartAt(d, j), seg[0]; !sameFloat(got, want) {
				t.Fatalf("Start(%d,%d) = %v, raw %v", d, j, got, want)
			}
			var sum float64
			for _, x := range seg {
				sum += x
			}
			if got, want := v.MeanAt(d, j), sum/float64(m); !closeFloat(got, want, absScale(seg)) {
				t.Fatalf("Mean(%d,%d) = %v, naive %v", d, j, got, want)
			}
		}
		// Windowed means against a naive O(D) loop over the columns.
		for probe := 0; probe < 64; probe++ {
			d := 1 + rng.Intn(v.DaysCount)
			D := 1 + rng.Intn(d)
			j := rng.Intn(n)
			checkWindow(t, "start", v.WindowStartMean(d, j, D), v.Start, v.N, d, j, D)
		}
	})
}

// checkWindow compares one prefix-sum windowed mean against the naive
// D-term sum over column j of days [d-D, d).
func checkWindow(t *testing.T, label string, got float64, col []float64, n, d, j, D int) {
	t.Helper()
	var sum, scale float64
	sawNaN := false
	for dd := d - D; dd < d; dd++ {
		x := col[dd*n+j]
		if math.IsNaN(x) {
			sawNaN = true
		}
		sum += x
		scale += math.Abs(x)
	}
	want := sum / float64(D)
	if sawNaN {
		// The naive sum is NaN; the prefix difference must not launder the
		// NaN into a finite value.
		if !math.IsNaN(got) {
			t.Fatalf("%s window (d=%d j=%d D=%d): NaN in window but got %v", label, d, j, D, got)
		}
		return
	}
	if math.IsNaN(got) {
		// A NaN elsewhere in the column poisons both prefix ends; the
		// difference is then NaN even for clean windows. That is the
		// documented contract (stats treats NaN as a programming error),
		// not a prefix bug, so nothing to compare.
		return
	}
	if !closeFloat(got, want, scale/float64(D)) {
		t.Fatalf("%s window (d=%d j=%d D=%d) = %v, naive %v", label, d, j, D, got, want)
	}
}

// FuzzCoarsen checks the resolution pyramid: a view derived by Coarsen
// must agree with direct slotting of the raw trace — Start bit-identical,
// Mean within association tolerance (bit-identical from an M==1 donor).
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(1), uint8(20), int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(uint8(2), uint8(9), int64(7), uint8(20), uint8(80), uint8(0))
	f.Add(uint8(0), uint8(2), int64(9), uint8(49), uint8(199), uint8(5))
	f.Fuzz(func(t *testing.T, resIdx, days uint8, seed int64, nanPM, negPM, pick uint8) {
		s, ok := fuzzSeries(resIdx, days, seed, nanPM, negPM)
		if !ok {
			t.Skip()
		}
		perDay := s.SamplesPerDay()
		divs := divisorsOf(perDay)
		rng := rand.New(rand.NewSource(seed ^ 0xc0a125e))
		fineN := divs[rng.Intn(len(divs))]
		fine, err := s.Slot(fineN)
		if err != nil {
			t.Fatal(err)
		}
		var coarse []int
		for _, n := range divs {
			if n < fineN && fineN%n == 0 {
				coarse = append(coarse, n)
			}
		}
		if len(coarse) == 0 {
			t.Skip()
		}
		n := coarse[int(pick)%len(coarse)]
		derived, err := fine.Coarsen(n)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.Slot(n)
		if err != nil {
			t.Fatal(err)
		}
		if derived.M != direct.M || derived.SlotMinutes != direct.SlotMinutes ||
			derived.DaysCount != direct.DaysCount {
			t.Fatalf("geometry: derived M=%d slot=%dmin, direct M=%d slot=%dmin",
				derived.M, derived.SlotMinutes, direct.M, direct.SlotMinutes)
		}
		exact := fine.M == 1
		for i := range direct.Mean {
			if !sameFloat(derived.Start[i], direct.Start[i]) {
				t.Fatalf("Start[%d] = %v, direct %v", i, derived.Start[i], direct.Start[i])
			}
			if exact {
				if !sameFloat(derived.Mean[i], direct.Mean[i]) {
					t.Fatalf("M=1 donor: Mean[%d] = %v, direct %v (must be bit-identical)",
						i, derived.Mean[i], direct.Mean[i])
				}
			} else if !sameFloat(derived.Mean[i], direct.Mean[i]) &&
				!closeFloat(derived.Mean[i], direct.Mean[i], math.Abs(direct.Mean[i])) {
				t.Fatalf("Mean[%d] = %v, direct %v", i, derived.Mean[i], direct.Mean[i])
			}
		}
	})
}

// sameFloat is equality treating NaN as equal to NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// closeFloat compares within an absolute tolerance scaled to the
// magnitude of the summed terms (catastrophic cancellation between large
// positive and negative powers legitimately amplifies the association
// difference relative to the tiny result).
func closeFloat(a, b, scale float64) bool {
	if sameFloat(a, b) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(scale+1)
}

// absScale returns the mean absolute magnitude of xs (NaN-propagating).
func absScale(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}
