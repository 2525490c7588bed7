// Package dataset defines the six evaluation sites of the paper's Table I
// and generates their year-long synthetic irradiance traces.
//
// The paper uses NREL Measurement and Instrumentation Data Center (MIDC)
// irradiance recordings; those traces are not redistributable here, so
// this package substitutes a deterministic generator: a clear-sky envelope
// from internal/solar modulated by a per-site stochastic cloud process
// from internal/cloud. Row counts, day counts and sampling resolutions
// match Table I exactly.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"solarpred/internal/cloud"
	"solarpred/internal/solar"
	"solarpred/internal/timeseries"
)

// Site describes one evaluation location (one row of the paper's Table I).
type Site struct {
	// Name is the paper's data-set identifier (e.g. "SPMD").
	Name string
	// Location is the US state abbreviation from Table I.
	Location string
	// ResolutionMinutes is the recording resolution (1 or 5 minutes).
	ResolutionMinutes int
	// Days is the trace length; 365 for all paper sites.
	Days int
	// Geo holds the coordinates used by the clear-sky model.
	Geo solar.Site
	// Climate is the stochastic cloud model for the site.
	Climate cloud.Climate
	// Seed makes the generated trace reproducible.
	Seed int64
}

// Observations returns the number of samples in the full trace
// (the "Observations" column of Table I).
func (s Site) Observations() int {
	return s.Days * timeseries.MinutesPerDay / s.ResolutionMinutes
}

// Validate checks the site definition.
func (s Site) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dataset: site has empty name")
	}
	if s.ResolutionMinutes <= 0 || timeseries.MinutesPerDay%s.ResolutionMinutes != 0 {
		return fmt.Errorf("dataset: site %s resolution %d does not divide a day", s.Name, s.ResolutionMinutes)
	}
	if s.Days <= 0 {
		return fmt.Errorf("dataset: site %s has %d days", s.Name, s.Days)
	}
	if err := s.Geo.Validate(); err != nil {
		return fmt.Errorf("dataset: site %s: %w", s.Name, err)
	}
	if err := s.Climate.Validate(); err != nil {
		return fmt.Errorf("dataset: site %s: %w", s.Name, err)
	}
	return nil
}

// Sites returns the six evaluation sites in the paper's Table I order:
// SPMD (CO), ECSU (NC), ORNL (TN), HSU (CA), NPCS (NV), PFCI (AZ).
// SPMD and ECSU record at 5-minute resolution (105,120 observations);
// the rest at 1-minute resolution (525,600 observations).
func Sites() []Site {
	return []Site{
		{
			Name: "SPMD", Location: "CO", ResolutionMinutes: 5, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 39.74, LongitudeDeg: -105.18, TimezoneHours: -7},
			Climate: cloud.Continental, Seed: 0x5b3d01,
		},
		{
			Name: "ECSU", Location: "NC", ResolutionMinutes: 5, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 36.28, LongitudeDeg: -76.22, TimezoneHours: -5},
			Climate: cloud.Humid, Seed: 0xec50,
		},
		{
			Name: "ORNL", Location: "TN", ResolutionMinutes: 1, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 35.93, LongitudeDeg: -84.31, TimezoneHours: -5},
			Climate: cloud.Continental, Seed: 0x0421,
		},
		{
			Name: "HSU", Location: "CA", ResolutionMinutes: 1, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 40.88, LongitudeDeg: -124.08, TimezoneHours: -8},
			Climate: cloud.Marine, Seed: 0x450,
		},
		{
			Name: "NPCS", Location: "NV", ResolutionMinutes: 1, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 36.17, LongitudeDeg: -115.14, TimezoneHours: -8},
			Climate: cloud.Desert, Seed: 0x2bc5,
		},
		{
			Name: "PFCI", Location: "AZ", ResolutionMinutes: 1, Days: 365,
			Geo:     solar.Site{LatitudeDeg: 33.45, LongitudeDeg: -112.07, TimezoneHours: -7},
			Climate: cloud.Desert, Seed: 0x9fc1,
		},
	}
}

// sitesByName indexes Sites for SiteByName, which the prediction service
// calls on every request. It is built on first use, not at package init,
// so programs that never look a site up do not pay for it at start-up.
var sitesByName = sync.OnceValue(func() map[string]Site {
	m := make(map[string]Site)
	for _, s := range Sites() {
		m[s.Name] = s
	}
	return m
})

// SiteByName returns the built-in site with the given name. The result
// is a copy: callers may change it (for example set Days) freely.
func SiteByName(name string) (Site, error) {
	if s, ok := sitesByName()[name]; ok {
		return s, nil
	}
	return Site{}, fmt.Errorf("dataset: unknown site %q", name)
}

// SiteNames returns the built-in site names in Table I order.
func SiteNames() []string {
	sites := Sites()
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.Name
	}
	return names
}

// Generate produces the site's full synthetic irradiance trace. The same
// site always generates the identical trace (seeded).
func Generate(site Site) (*timeseries.Series, error) {
	series, _, err := GenerateLabeled(site)
	return series, err
}

// GenerateLabeled is Generate plus the per-day stochastic plans the
// cloud process realised (day type, base transmittance, fog, events) —
// the labels behind the error-by-weather analysis in
// internal/experiments.
func GenerateLabeled(site Site) (*timeseries.Series, []cloud.DayPlan, error) {
	if err := site.Validate(); err != nil {
		return nil, nil, err
	}
	perDay := timeseries.MinutesPerDay / site.ResolutionMinutes
	samples := make([]float64, 0, perDay*site.Days)
	clearSky := make([]float64, perDay)
	trans := make([]float64, perDay)
	plans := make([]cloud.DayPlan, 0, site.Days)

	proc, err := cloud.NewProcess(site.Climate, site.Seed)
	if err != nil {
		return nil, nil, err
	}
	for day := 0; day < site.Days; day++ {
		doy := day%solar.DaysPerYear + 1
		if err := solar.ClearSkyDay(site.Geo, doy, site.ResolutionMinutes, clearSky); err != nil {
			return nil, nil, err
		}
		rise, set := solar.SunriseSunset(site.Geo, doy)
		plan, err := proc.GenerateDay(doy, site.ResolutionMinutes, rise, set, trans)
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, plan)
		for i := 0; i < perDay; i++ {
			samples = append(samples, clearSky[i]*trans[i])
		}
	}
	series, err := timeseries.New(site.ResolutionMinutes, samples)
	if err != nil {
		return nil, nil, err
	}
	return series, plans, nil
}

// GenerateDays is like Generate but limited to the first n days; useful
// for examples and fast tests.
func GenerateDays(site Site, n int) (*timeseries.Series, error) {
	if n <= 0 || n > site.Days {
		return nil, fmt.Errorf("dataset: day count %d out of range (1..%d)", n, site.Days)
	}
	site.Days = n
	return Generate(site)
}

// TableIRow is one row of the paper's Table I summary.
type TableIRow struct {
	Name         string
	Location     string
	Observations int
	Days         int
	Resolution   string
}

// TableI returns the data-set summary matching the paper's Table I.
func TableI() []TableIRow {
	sites := Sites()
	rows := make([]TableIRow, len(sites))
	for i, s := range sites {
		res := fmt.Sprintf("%d minutes", s.ResolutionMinutes)
		if s.ResolutionMinutes == 1 {
			res = "1 minute"
		}
		rows[i] = TableIRow{
			Name:         s.Name,
			Location:     s.Location,
			Observations: s.Observations(),
			Days:         s.Days,
			Resolution:   res,
		}
	}
	return rows
}

// WriteCSV writes the series as CSV with a header. Each record is
// day,sampleIndex,power with day one-based to ease eyeballing against the
// paper's "days 21 to 365" convention.
func WriteCSV(w io.Writer, s *timeseries.Series) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"day", "sample", "power_w_m2"}); err != nil {
		return err
	}
	perDay := s.SamplesPerDay()
	rec := make([]string, 3)
	for d := 0; d < s.Days(); d++ {
		for i := 0; i < perDay; i++ {
			rec[0] = strconv.Itoa(d + 1)
			rec[1] = strconv.Itoa(i)
			rec[2] = strconv.FormatFloat(s.Samples[d*perDay+i], 'f', 3, 64)
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// Summary describes a generated trace for diagnostics; cmd/solargen
// -summary prints one per site. Table I itself is dataset.TableI (see
// README's "Artefact map").
type Summary struct {
	Site         string
	Observations int
	Days         int
	PeakPower    float64
	MeanDaylight float64 // mean power over samples above 1% of peak
	ZeroFraction float64 // fraction of exactly-zero (night) samples
}

// Summarize computes a Summary of a series for the named site.
func Summarize(name string, s *timeseries.Series) Summary {
	peak := s.Peak()
	var zero int
	var daySum float64
	var dayN int
	for _, v := range s.Samples {
		if v == 0 {
			zero++
		}
		if v > 0.01*peak {
			daySum += v
			dayN++
		}
	}
	sum := Summary{
		Site:         name,
		Observations: len(s.Samples),
		Days:         s.Days(),
		PeakPower:    peak,
	}
	if dayN > 0 {
		sum.MeanDaylight = daySum / float64(dayN)
	}
	if len(s.Samples) > 0 {
		sum.ZeroFraction = float64(zero) / float64(len(s.Samples))
	}
	return sum
}

// DailyEnergies returns the per-day energy (watt-minutes per m²) of the
// series, useful for plotting Fig. 2-style overviews.
func DailyEnergies(s *timeseries.Series) []float64 {
	days := s.Days()
	out := make([]float64, days)
	perDay := s.SamplesPerDay()
	res := float64(s.ResolutionMinutes)
	for d := 0; d < days; d++ {
		var sum float64
		for _, v := range s.Samples[d*perDay : (d+1)*perDay] {
			sum += v * res
		}
		out[d] = sum
	}
	return out
}

// PickVariedDays returns the indices of n days chosen to span the range of
// daily energies (sorted by calendar order), mimicking the paper's Fig. 2
// selection of six days with visible variety. It picks evenly spaced days
// from the energy-sorted order of the window [from, to).
func PickVariedDays(s *timeseries.Series, from, to, n int) ([]int, error) {
	if from < 0 || to > s.Days() || from >= to {
		return nil, fmt.Errorf("dataset: window [%d,%d) out of range", from, to)
	}
	if n <= 0 || n > to-from {
		return nil, fmt.Errorf("dataset: cannot pick %d days from window of %d", n, to-from)
	}
	energies := DailyEnergies(s)
	idx := make([]int, 0, to-from)
	for d := from; d < to; d++ {
		idx = append(idx, d)
	}
	sort.Slice(idx, func(a, b int) bool { return energies[idx[a]] < energies[idx[b]] })
	picked := make([]int, 0, n)
	step := float64(len(idx)-1) / float64(n-1)
	if n == 1 {
		step = 0
	}
	for i := 0; i < n; i++ {
		picked = append(picked, idx[int(float64(i)*step)])
	}
	sort.Ints(picked)
	return picked, nil
}
