package dataset

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"solarpred/internal/timeseries"
)

func TestSitesMatchTableI(t *testing.T) {
	sites := Sites()
	if len(sites) != 6 {
		t.Fatalf("expected 6 sites, got %d", len(sites))
	}
	want := []struct {
		name, loc string
		obs       int
		res       int
	}{
		{"SPMD", "CO", 105120, 5},
		{"ECSU", "NC", 105120, 5},
		{"ORNL", "TN", 525600, 1},
		{"HSU", "CA", 525600, 1},
		{"NPCS", "NV", 525600, 1},
		{"PFCI", "AZ", 525600, 1},
	}
	for i, w := range want {
		s := sites[i]
		if s.Name != w.name || s.Location != w.loc {
			t.Errorf("site %d = %s/%s, want %s/%s", i, s.Name, s.Location, w.name, w.loc)
		}
		if s.Observations() != w.obs {
			t.Errorf("%s observations = %d, want %d", s.Name, s.Observations(), w.obs)
		}
		if s.ResolutionMinutes != w.res {
			t.Errorf("%s resolution = %d, want %d", s.Name, s.ResolutionMinutes, w.res)
		}
		if s.Days != 365 {
			t.Errorf("%s days = %d, want 365", s.Name, s.Days)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestSiteByName(t *testing.T) {
	s, err := SiteByName("ORNL")
	if err != nil || s.Name != "ORNL" {
		t.Errorf("SiteByName(ORNL) = %v, %v", s.Name, err)
	}
	if _, err := SiteByName("NOPE"); err == nil {
		t.Error("unknown site should error")
	}
	// The lookup table is built once; what it returns must be a copy.
	s.Days, s.Climate.SeasonalAmplitude = 7, -1
	again, _ := SiteByName("ORNL")
	if again != Sites()[2] {
		t.Errorf("SiteByName(ORNL) after changing a returned copy = %+v, want %+v", again, Sites()[2])
	}
	names := SiteNames()
	if len(names) != 6 || names[0] != "SPMD" || names[5] != "PFCI" {
		t.Errorf("SiteNames = %v", names)
	}
}

func TestSiteValidateRejectsBad(t *testing.T) {
	good, _ := SiteByName("SPMD")

	s := good
	s.Name = ""
	if err := s.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	s = good
	s.ResolutionMinutes = 7
	if err := s.Validate(); err == nil {
		t.Error("bad resolution accepted")
	}
	s = good
	s.Days = 0
	if err := s.Validate(); err == nil {
		t.Error("zero days accepted")
	}
	s = good
	s.Geo.LatitudeDeg = 123
	if err := s.Validate(); err == nil {
		t.Error("bad latitude accepted")
	}
	s = good
	s.Climate.Transition[0][0] = 0
	if err := s.Validate(); err == nil {
		t.Error("bad climate accepted")
	}
}

func TestGenerateShortTraceProperties(t *testing.T) {
	site, _ := SiteByName("SPMD")
	s, err := GenerateDays(site, 30)
	if err != nil {
		t.Fatal(err)
	}
	if s.Days() != 30 {
		t.Fatalf("days = %d", s.Days())
	}
	if s.SamplesPerDay() != 288 {
		t.Fatalf("samples/day = %d", s.SamplesPerDay())
	}
	peak := s.Peak()
	if peak < 200 || peak > 1200 {
		t.Errorf("peak power %.0f W/m² implausible", peak)
	}
	neg := 0
	for _, v := range s.Samples {
		if v < 0 {
			neg++
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite sample")
		}
	}
	if neg != 0 {
		t.Errorf("%d negative samples", neg)
	}
	// Night must be dark: first and last samples of each day are zero in
	// January (sunrise well after midnight).
	for d := 0; d < s.Days(); d++ {
		day, _ := s.Day(d)
		if day[0] != 0 || day[len(day)-1] != 0 {
			t.Errorf("day %d: night samples nonzero (%v, %v)", d, day[0], day[len(day)-1])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	site, _ := SiteByName("NPCS")
	a, err := GenerateDays(site, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDays(site, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("trace not deterministic at sample %d", i)
		}
	}
}

func TestGenerateSitesDiffer(t *testing.T) {
	a, err := GenerateDays(mustSite(t, "NPCS"), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDays(mustSite(t, "PFCI"), 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two desert sites generated identical traces; seeds not applied")
	}
}

func mustSite(t *testing.T, name string) Site {
	t.Helper()
	s, err := SiteByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDaysValidation(t *testing.T) {
	site := mustSite(t, "SPMD")
	if _, err := GenerateDays(site, 0); err == nil {
		t.Error("0 days accepted")
	}
	if _, err := GenerateDays(site, 400); err == nil {
		t.Error("more days than site defines accepted")
	}
}

func TestDesertBeatsContinentalYield(t *testing.T) {
	// Summer months: desert site should harvest clearly more relative to
	// its clear-sky potential. Compare mean daylight power normalised by
	// peak.
	npcs, err := GenerateDays(mustSite(t, "NPCS"), 120)
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := GenerateDays(mustSite(t, "SPMD"), 120)
	if err != nil {
		t.Fatal(err)
	}
	sn := Summarize("NPCS", npcs)
	ss := Summarize("SPMD", spmd)
	if sn.MeanDaylight/sn.PeakPower <= ss.MeanDaylight/ss.PeakPower {
		t.Errorf("desert normalised yield %.3f should exceed continental %.3f",
			sn.MeanDaylight/sn.PeakPower, ss.MeanDaylight/ss.PeakPower)
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 6 {
		t.Fatalf("TableI rows = %d", len(rows))
	}
	if rows[0].Name != "SPMD" || rows[0].Observations != 105120 || rows[0].Resolution != "5 minutes" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[2].Name != "ORNL" || rows[2].Observations != 525600 || rows[2].Resolution != "1 minute" {
		t.Errorf("row 2 = %+v", rows[2])
	}
	for _, r := range rows {
		if r.Days != 365 {
			t.Errorf("%s days = %d", r.Name, r.Days)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	site := mustSite(t, "SPMD")
	s, err := GenerateDays(site, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(recs[0], ","); got != "day,sample,power_w_m2" {
		t.Fatalf("header = %q", got)
	}
	if len(recs)-1 != len(s.Samples) {
		t.Fatalf("rows = %d, want %d", len(recs)-1, len(s.Samples))
	}
	perDay := s.SamplesPerDay()
	for i, rec := range recs[1:] {
		if want := []string{strconv.Itoa(i/perDay + 1), strconv.Itoa(i % perDay)}; rec[0] != want[0] || rec[1] != want[1] {
			t.Fatalf("row %d indices = %v, want %v", i, rec[:2], want)
		}
		got, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-s.Samples[i]) > 0.001 { // CSV rounds to 3 decimals
			t.Fatalf("sample %d: %v vs %v", i, got, s.Samples[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 288)
	for i := 100; i < 200; i++ {
		samples[i] = 500
	}
	s, _ := timeseries.New(5, samples)
	sum := Summarize("X", s)
	if sum.PeakPower != 500 || sum.Days != 1 || sum.Observations != 288 {
		t.Errorf("summary = %+v", sum)
	}
	if math.Abs(sum.ZeroFraction-188.0/288.0) > 1e-12 {
		t.Errorf("zero fraction = %v", sum.ZeroFraction)
	}
	if sum.MeanDaylight != 500 {
		t.Errorf("mean daylight = %v", sum.MeanDaylight)
	}
	// Degenerate all-zero trace.
	z, _ := timeseries.New(5, make([]float64, 288))
	sz := Summarize("Z", z)
	if sz.MeanDaylight != 0 || sz.ZeroFraction != 1 {
		t.Errorf("zero summary = %+v", sz)
	}
}

func TestDailyEnergies(t *testing.T) {
	samples := make([]float64, 288*2)
	for i := 0; i < 288; i++ {
		samples[i] = 100 // day 1: constant 100 W for 1440 min
	}
	s, _ := timeseries.New(5, samples)
	e := DailyEnergies(s)
	if len(e) != 2 {
		t.Fatalf("len = %d", len(e))
	}
	if math.Abs(e[0]-100*1440) > 1e-9 {
		t.Errorf("day 1 energy = %v", e[0])
	}
	if e[1] != 0 {
		t.Errorf("day 2 energy = %v", e[1])
	}
}

func TestPickVariedDays(t *testing.T) {
	site := mustSite(t, "SPMD")
	s, err := GenerateDays(site, 40)
	if err != nil {
		t.Fatal(err)
	}
	days, err := PickVariedDays(s, 0, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 6 {
		t.Fatalf("picked %d days", len(days))
	}
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			t.Fatal("picked days not strictly sorted")
		}
	}
	energies := DailyEnergies(s)
	lo, hi := energies[days[0]], energies[days[0]]
	for _, d := range days {
		if energies[d] < lo {
			lo = energies[d]
		}
		if energies[d] > hi {
			hi = energies[d]
		}
	}
	if hi <= lo {
		t.Error("picked days show no energy variety")
	}
	if _, err := PickVariedDays(s, 0, 40, 0); err == nil {
		t.Error("zero pick accepted")
	}
	if _, err := PickVariedDays(s, 30, 20, 3); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := PickVariedDays(s, 0, 5, 10); err == nil {
		t.Error("overlong pick accepted")
	}
	one, err := PickVariedDays(s, 0, 40, 1)
	if err != nil || len(one) != 1 {
		t.Errorf("single pick: %v %v", one, err)
	}
}
