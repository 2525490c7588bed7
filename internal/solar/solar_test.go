package solar

import (
	"math"
	"testing"
	"testing/quick"
)

var golden = Site{LatitudeDeg: 39.74, LongitudeDeg: -105.18, TimezoneHours: -7}

func deg(r float64) float64 { return r * 180 / math.Pi }

func TestSiteValidate(t *testing.T) {
	if err := golden.Validate(); err != nil {
		t.Errorf("valid site rejected: %v", err)
	}
	bad := []Site{
		{LatitudeDeg: 91},
		{LatitudeDeg: -91},
		{LongitudeDeg: 200},
		{LongitudeDeg: -200},
		{TimezoneHours: -15},
		{TimezoneHours: 15},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad site %d accepted", i)
		}
	}
}

func TestDeclinationExtremes(t *testing.T) {
	// Summer solstice around day 172: declination near +23.44°.
	d := deg(Declination(172))
	if d < 23 || d > 23.6 {
		t.Errorf("solstice declination = %.2f°, want ≈23.44°", d)
	}
	// Winter solstice around day 355: near −23.44°.
	d = deg(Declination(355))
	if d > -23 || d < -23.6 {
		t.Errorf("winter declination = %.2f°", d)
	}
	// Equinoxes near zero.
	for _, doy := range []int{80, 266} {
		d := deg(Declination(doy))
		if math.Abs(d) > 1.5 {
			t.Errorf("equinox day %d declination = %.2f°, want ≈0", doy, d)
		}
	}
}

func TestEquationOfTimeBounds(t *testing.T) {
	// EoT stays within about ±17 minutes across a year.
	for doy := 1; doy <= DaysPerYear; doy++ {
		e := EquationOfTime(doy)
		if e < -17 || e > 17 {
			t.Fatalf("day %d: EoT %.2f out of physical bounds", doy, e)
		}
	}
	// Mid-February minimum around −14 min.
	if e := EquationOfTime(44); e > -13 {
		t.Errorf("Feb EoT = %.2f, want ≤ −13", e)
	}
	// Early November maximum around +16 min.
	if e := EquationOfTime(307); e < 15 {
		t.Errorf("Nov EoT = %.2f, want ≥ 15", e)
	}
}

func TestHourAngleNoon(t *testing.T) {
	if h := HourAngle(720); h != 0 {
		t.Errorf("hour angle at solar noon = %v", h)
	}
	if h := deg(HourAngle(720 + 60)); math.Abs(h-15) > 1e-9 {
		t.Errorf("one hour after noon = %v°, want 15°", h)
	}
	if h := deg(HourAngle(720 - 240)); math.Abs(h+60) > 1e-9 {
		t.Errorf("4h before noon = %v°, want −60°", h)
	}
}

func TestElevationDiurnalShape(t *testing.T) {
	// Elevation must be negative at local midnight and positive at noon
	// for a mid-latitude site in summer.
	night := PositionAt(golden, 172, 0)
	if night.Elevation >= 0 {
		t.Errorf("midnight elevation = %.2f°, want < 0", deg(night.Elevation))
	}
	noon := PositionAt(golden, 172, 720)
	if noon.Elevation <= 0 {
		t.Errorf("noon elevation = %.2f°, want > 0", deg(noon.Elevation))
	}
	// Summer noon elevation ≈ 90 − |lat − decl| ≈ 73.7° at Golden, CO.
	if e := deg(noon.Elevation); e < 70 || e > 78 {
		t.Errorf("summer noon elevation = %.1f°, want ≈ 73.7°", e)
	}
	if math.Abs(noon.Zenith+noon.Elevation-math.Pi/2) > 1e-12 {
		t.Error("zenith + elevation must equal 90°")
	}
}

func TestSeasonalNoonOrdering(t *testing.T) {
	summer := PositionAt(golden, 172, 720).Elevation
	winter := PositionAt(golden, 355, 720).Elevation
	spring := PositionAt(golden, 80, 720).Elevation
	if !(summer > spring && spring > winter) {
		t.Errorf("noon elevations not ordered: summer %.1f spring %.1f winter %.1f",
			deg(summer), deg(spring), deg(winter))
	}
}

func TestClearSkyGHIProperties(t *testing.T) {
	if ClearSkyGHI(-0.1) != 0 {
		t.Error("below-horizon GHI must be 0")
	}
	if ClearSkyGHI(0) != 0 {
		t.Error("horizon GHI must be 0")
	}
	// Overhead sun: 1098·exp(−0.057) ≈ 1037 W/m².
	if g := ClearSkyGHI(math.Pi / 2); math.Abs(g-1037) > 2 {
		t.Errorf("zenith GHI = %.1f, want ≈1037", g)
	}
	// Monotone in elevation on (0, π/2].
	prev := 0.0
	for e := 0.01; e <= math.Pi/2; e += 0.01 {
		g := ClearSkyGHI(e)
		if g < prev {
			t.Fatalf("GHI not monotone at elevation %.2f", e)
		}
		prev = g
	}
}

func TestClearSkyBelowExtraterrestrial(t *testing.T) {
	f := func(doyRaw int, elevRaw float64) bool {
		doy := 1 + abs(doyRaw)%DaysPerYear
		elev := math.Mod(math.Abs(elevRaw), math.Pi/2)
		ghi := ClearSkyGHI(elev)
		ext := ExtraterrestrialHorizontal(doy, elev)
		return ghi <= ext+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDayLengthSeasons(t *testing.T) {
	summer := DayLength(golden, 172)
	winter := DayLength(golden, 355)
	equinox := DayLength(golden, 80)
	if summer <= equinox || equinox <= winter {
		t.Errorf("day lengths not ordered: %f %f %f", summer, equinox, winter)
	}
	// Golden, CO: about 14.9h summer, 9.3h winter.
	if summer < 14*60 || summer > 15.5*60 {
		t.Errorf("summer day length = %.0f min", summer)
	}
	if winter < 9*60 || winter > 10*60 {
		t.Errorf("winter day length = %.0f min", winter)
	}
	// Equator: always ≈12h.
	eq := Site{LatitudeDeg: 0, LongitudeDeg: 0, TimezoneHours: 0}
	for _, doy := range []int{1, 100, 200, 300} {
		l := DayLength(eq, doy)
		if math.Abs(l-720) > 20 {
			t.Errorf("equator day %d length = %.0f min", doy, l)
		}
	}
	// Polar saturation.
	arctic := Site{LatitudeDeg: 80, LongitudeDeg: 0, TimezoneHours: 0}
	if DayLength(arctic, 172) != 1440 {
		t.Error("arctic summer should be polar day")
	}
	if DayLength(arctic, 355) != 0 {
		t.Error("arctic winter should be polar night")
	}
}

func TestSunriseSunsetConsistency(t *testing.T) {
	for _, doy := range []int{15, 80, 172, 266, 355} {
		rise, set := SunriseSunset(golden, doy)
		if rise >= set {
			t.Fatalf("day %d: rise %.0f >= set %.0f", doy, rise, set)
		}
		if math.Abs((set-rise)-DayLength(golden, doy)) > 1e-6 {
			t.Errorf("day %d: set−rise != day length", doy)
		}
		// Elevation just after sunrise must be positive, just before
		// sunrise negative.
		after := PositionAt(golden, doy, rise+10).Elevation
		before := PositionAt(golden, doy, rise-10).Elevation
		if after <= 0 || before >= 0 {
			t.Errorf("day %d: sunrise bracket failed (%.3f, %.3f)", doy, before, after)
		}
	}
	arctic := Site{LatitudeDeg: 80, LongitudeDeg: 0, TimezoneHours: 0}
	r, s := SunriseSunset(arctic, 172)
	if r != 0 || s != 1440 {
		t.Error("polar day sunrise/sunset")
	}
	r, s = SunriseSunset(arctic, 355)
	if r != s {
		t.Error("polar night should collapse")
	}
}

func TestClearSkyDay(t *testing.T) {
	out := make([]float64, 288)
	if err := ClearSkyDay(golden, 172, 5, out); err != nil {
		t.Fatal(err)
	}
	// Night samples zero, midday positive, peak near solar noon.
	if out[0] != 0 || out[287] != 0 {
		t.Error("midnight samples should be zero")
	}
	peakIdx, peak := 0, 0.0
	for i, v := range out {
		if v > peak {
			peak, peakIdx = v, i
		}
	}
	if peak < 900 || peak > 1100 {
		t.Errorf("summer clear-sky peak = %.0f W/m²", peak)
	}
	// Solar noon at Golden is within ±40 min of clock noon.
	noonSample := 720 / 5
	if absInt(peakIdx-noonSample) > 8 {
		t.Errorf("peak at sample %d, expected near %d", peakIdx, noonSample)
	}
	if err := ClearSkyDay(golden, 172, 5, make([]float64, 100)); err == nil {
		t.Error("wrong out length should error")
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestClearSkyAnnualEnergyCurve(t *testing.T) {
	// Integrated daily clear-sky energy must peak in summer and trough in
	// winter for a northern mid-latitude site.
	daily := make([]float64, DaysPerYear+1)
	out := make([]float64, 288)
	for doy := 1; doy <= DaysPerYear; doy++ {
		if err := ClearSkyDay(golden, doy, 5, out); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range out {
			sum += v
		}
		daily[doy] = sum
	}
	if daily[172] <= daily[80] || daily[80] <= daily[355] {
		t.Errorf("daily energy not seasonal: %e %e %e", daily[172], daily[80], daily[355])
	}
}

// zeroSamples are samples whose sin(elevation) is exactly +0: the two
// terms of the elevation sum cancel bit for bit. A −0 sum is unreachable
// — it needs both terms to be −0, and cos(lat)·cos(δ)·cos(H) is never
// zero for floating-point arguments.
var zeroSamples = []struct {
	site    Site
	doy     int
	minutes float64
}{
	{Site{LatitudeDeg: 30.07972121764268}, 1, 420}, // 07:00 sunrise
	{Site{LatitudeDeg: -67.01845640452417}, 2, 0},  // midnight, polar-day edge
}

// FuzzClearSkyDayMatchesPositionAt is the differential test for the
// hoisted per-day terms: for any valid site, day and sampling resolution
// the sites use, every ClearSkyDay sample must equal, bit for bit,
// ClearSkyGHI of PositionAt's elevation at that sample's clock time.
func FuzzClearSkyDayMatchesPositionAt(f *testing.F) {
	for _, z := range zeroSamples {
		if el := PositionAt(z.site, z.doy, z.minutes).Elevation; el != 0 || math.Signbit(el) {
			f.Fatalf("%+v day %d minute %v no longer reaches sin(elevation) = +0: elevation %v", z.site, z.doy, z.minutes, el)
		}
		f.Add(z.site.LatitudeDeg, 0.0, 0.0, uint16(z.doy), uint8(5)) // 60-minute samples include both
	}
	f.Add(golden.LatitudeDeg, golden.LongitudeDeg, golden.TimezoneHours, uint16(172), uint8(0))
	f.Add(90.0, 0.0, 0.0, uint16(172), uint8(1))     // polar day
	f.Add(90.0, 0.0, 0.0, uint16(355), uint8(2))     // polar night
	f.Add(-90.0, 179.0, 12.0, uint16(172), uint8(3)) // southern polar night
	f.Add(66.5, 25.0, 2.0, uint16(172), uint8(4))    // Arctic circle, midsummer
	f.Add(-66.5, -68.0, -4.0, uint16(355), uint8(5)) // Antarctic circle, midsummer
	f.Add(-14.3, -170.7, 14.0, uint16(80), uint8(1)) // largest timezone offset
	f.Fuzz(func(t *testing.T, lat, lon, tz float64, doyRaw uint16, resSel uint8) {
		site := Site{
			LatitudeDeg:   foldInto(lat, -90, 90),
			LongitudeDeg:  foldInto(lon, -180, 180),
			TimezoneHours: foldInto(tz, -12, 14),
		}
		if err := site.Validate(); err != nil {
			t.Fatal(err)
		}
		doy := 1 + (int(doyRaw)+DaysPerYear-1)%DaysPerYear
		res := []int{1, 5, 10, 15, 30, 60}[resSel%6]
		out := make([]float64, 1440/res)
		if err := ClearSkyDay(site, doy, res, out); err != nil {
			t.Fatal(err)
		}
		for i, got := range out {
			minutes := float64(i * res)
			want := ClearSkyGHI(PositionAt(site, doy, minutes).Elevation)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v day %d minute %v: ClearSkyDay %v, PositionAt reference %v", site, doy, minutes, got, want)
			}
		}
	})
}

// foldInto maps x into [lo, hi], keeping in-range values (the poles and
// the date line included) exactly.
func foldInto(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	if x < lo || x > hi {
		return lo + math.Mod(math.Abs(x), hi-lo)
	}
	return x
}
