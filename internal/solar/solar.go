// Package solar implements the astronomical and atmospheric building
// blocks of the synthetic irradiance generator: solar declination,
// equation of time, hour angle, solar elevation, day length, and the
// Haurwitz clear-sky global-horizontal-irradiance (GHI) model.
//
// The goal is not ephemeris-grade accuracy but a faithful diurnal and
// seasonal envelope: the prediction algorithm under study exploits the
// 24-hour periodicity and day-to-day correlation of solar energy, and
// those properties are fixed by the geometry implemented here.
//
// References: Spencer (1971) Fourier series for declination and equation
// of time; Haurwitz (1945) clear-sky GHI as a function of solar elevation.
package solar

import (
	"fmt"
	"math"
)

// DaysPerYear is the (non-leap) year length assumed by the generator,
// matching the paper's 365-day traces.
const DaysPerYear = 365

// SolarConstant is the extraterrestrial normal irradiance in W/m².
const SolarConstant = 1361.0

// Position describes the sun's apparent position for one instant.
type Position struct {
	// Declination is the solar declination δ in radians.
	Declination float64
	// HourAngle is the solar hour angle H in radians (zero at solar noon,
	// negative in the morning).
	HourAngle float64
	// Elevation is the solar elevation angle above the horizon in radians
	// (negative at night).
	Elevation float64
	// Zenith is π/2 − Elevation.
	Zenith float64
}

// Site is a geographic location for geometry purposes.
type Site struct {
	// LatitudeDeg is geographic latitude in degrees, positive north.
	LatitudeDeg float64
	// LongitudeDeg is geographic longitude in degrees, positive east.
	LongitudeDeg float64
	// TimezoneHours is the local-standard-time offset from UTC in hours
	// (e.g. −7 for Mountain Standard Time). Used to convert clock time to
	// solar time.
	TimezoneHours float64
}

// Validate reports whether the site coordinates are physically meaningful.
func (s Site) Validate() error {
	if s.LatitudeDeg < -90 || s.LatitudeDeg > 90 {
		return fmt.Errorf("solar: latitude %.2f out of range", s.LatitudeDeg)
	}
	if s.LongitudeDeg < -180 || s.LongitudeDeg > 180 {
		return fmt.Errorf("solar: longitude %.2f out of range", s.LongitudeDeg)
	}
	if s.TimezoneHours < -12 || s.TimezoneHours > 14 {
		return fmt.Errorf("solar: timezone %.1f out of range", s.TimezoneHours)
	}
	return nil
}

// dayAngle returns the fractional year angle γ in radians for a one-based
// day of year.
func dayAngle(doy int) float64 {
	return 2 * math.Pi * float64(doy-1) / DaysPerYear
}

// Declination returns the solar declination in radians for a one-based day
// of year using Spencer's Fourier expansion (max error ≈ 0.0006 rad).
func Declination(doy int) float64 {
	g := dayAngle(doy)
	return 0.006918 -
		0.399912*math.Cos(g) + 0.070257*math.Sin(g) -
		0.006758*math.Cos(2*g) + 0.000907*math.Sin(2*g) -
		0.002697*math.Cos(3*g) + 0.00148*math.Sin(3*g)
}

// EquationOfTime returns the equation of time in minutes for a one-based
// day of year (Spencer). Positive values mean the sundial is ahead of the
// clock.
func EquationOfTime(doy int) float64 {
	g := dayAngle(doy)
	return 229.18 * (0.000075 +
		0.001868*math.Cos(g) - 0.032077*math.Sin(g) -
		0.014615*math.Cos(2*g) - 0.04089*math.Sin(2*g))
}

// SolarTime converts local-standard clock time (minutes after local
// midnight) at the given site and day of year to apparent solar time in
// minutes.
func SolarTime(site Site, doy int, clockMinutes float64) float64 {
	// 4 minutes per degree of longitude away from the timezone meridian.
	meridian := site.TimezoneHours * 15
	correction := 4*(site.LongitudeDeg-meridian) + EquationOfTime(doy)
	return clockMinutes + correction
}

// HourAngle converts apparent solar time in minutes to the hour angle in
// radians: zero at solar noon, 15°/hour.
func HourAngle(solarMinutes float64) float64 {
	return (solarMinutes - 720) / 4 * math.Pi / 180
}

// PositionAt returns the solar position for a site at a given one-based
// day of year and local clock time in minutes after midnight.
func PositionAt(site Site, doy int, clockMinutes float64) Position {
	decl := Declination(doy)
	h := HourAngle(SolarTime(site, doy, clockMinutes))
	lat := site.LatitudeDeg * math.Pi / 180
	sinEl := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(h)
	el := math.Asin(clampUnit(sinEl))
	return Position{
		Declination: decl,
		HourAngle:   h,
		Elevation:   el,
		Zenith:      math.Pi/2 - el,
	}
}

func clampUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// ClearSkyGHI returns the Haurwitz-model clear-sky global horizontal
// irradiance in W/m² for a solar elevation in radians. It is zero at and
// below the horizon.
func ClearSkyGHI(elevation float64) float64 {
	s := math.Sin(elevation)
	if s <= 0 {
		return 0
	}
	return 1098 * s * math.Exp(-0.057/s)
}

// ExtraterrestrialHorizontal returns the irradiance on a horizontal plane
// at the top of the atmosphere for a solar elevation in radians, including
// the ±3.3% annual orbit-eccentricity correction.
func ExtraterrestrialHorizontal(doy int, elevation float64) float64 {
	s := math.Sin(elevation)
	if s <= 0 {
		return 0
	}
	ecc := 1 + 0.033*math.Cos(2*math.Pi*float64(doy)/DaysPerYear)
	return SolarConstant * ecc * s
}

// DayLength returns the day length in minutes for a site and one-based
// day of year. Polar day/night saturate to 1440/0.
func DayLength(site Site, doy int) float64 {
	lat := site.LatitudeDeg * math.Pi / 180
	decl := Declination(doy)
	cosH := -math.Tan(lat) * math.Tan(decl)
	if cosH <= -1 {
		return 1440 // polar day
	}
	if cosH >= 1 {
		return 0 // polar night
	}
	h0 := math.Acos(cosH) // sunset hour angle, radians
	return 2 * h0 * 180 / math.Pi * 4
}

// SunriseSunset returns the local clock times (minutes after midnight) of
// sunrise and sunset for a site and one-based day of year, inverting the
// solar-time correction. For polar day/night it returns (0, 1440) and
// (720, 720) respectively.
func SunriseSunset(site Site, doy int) (rise, set float64) {
	length := DayLength(site, doy)
	if length >= 1440 {
		return 0, 1440
	}
	if length <= 0 {
		return 720, 720
	}
	meridian := site.TimezoneHours * 15
	correction := 4*(site.LongitudeDeg-meridian) + EquationOfTime(doy)
	solarNoonClock := 720 - correction
	return solarNoonClock - length/2, solarNoonClock + length/2
}

// ClearSkyDay fills out with the clear-sky GHI for every sample of one
// day at the given resolution. Samples are taken at the start of each
// interval (consistent with a data logger time-stamping at interval
// starts). len(out) must be 1440/resolutionMinutes.
//
// Every sample is bit-identical to ClearSkyGHI(PositionAt(site, doy,
// minutes).Elevation): the terms that depend only on the day are computed
// once, in the same expression order PositionAt uses, and a sample with
// sin(elevation) ≤ 0 is written as 0 directly, which is what ClearSkyGHI
// returns for it.
func ClearSkyDay(site Site, doy int, resolutionMinutes int, out []float64) error {
	perDay := 1440 / resolutionMinutes
	if len(out) != perDay {
		return fmt.Errorf("solar: out length %d, want %d", len(out), perDay)
	}
	decl := Declination(doy)
	meridian := site.TimezoneHours * 15
	correction := 4*(site.LongitudeDeg-meridian) + EquationOfTime(doy)
	lat := site.LatitudeDeg * math.Pi / 180
	sinSin := math.Sin(lat) * math.Sin(decl)
	cosCos := math.Cos(lat) * math.Cos(decl)
	for i := 0; i < perDay; i++ {
		minutes := float64(i * resolutionMinutes)
		h := HourAngle(minutes + correction)
		sinEl := sinSin + cosCos*math.Cos(h)
		if sinEl <= 0 {
			out[i] = 0
			continue
		}
		out[i] = ClearSkyGHI(math.Asin(clampUnit(sinEl)))
	}
	return nil
}
