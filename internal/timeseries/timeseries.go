// Package timeseries provides the regular time-series containers used by
// the solar prediction library: a year-long trace of equally spaced power
// samples, day slicing, and the slot aggregation of the paper's Fig. 4
// (slot-start samples feeding the predictor, slot means feeding the error
// evaluation).
//
// # Conventions
//
// A Series holds samples at a fixed Resolution (samples per day is
// 24*60/resolutionMinutes). Day 1 is the first day of the trace, matching
// the paper's "days 21 to 365" evaluation window. Slot indices are
// zero-based j ∈ [0, N) where N is the number of slots per day.
package timeseries

import (
	"errors"
	"fmt"
)

// MinutesPerDay is the number of minutes in the 24-hour prediction cycle.
const MinutesPerDay = 24 * 60

// Series is a regularly sampled power trace spanning whole days.
type Series struct {
	// ResolutionMinutes is the spacing between consecutive samples.
	ResolutionMinutes int
	// Samples holds one power value (W/m² or W; the unit cancels in
	// relative error metrics) per sampling instant, day-major.
	Samples []float64
}

// New creates a Series with the given resolution and sample data. The
// sample count must be a whole number of days.
func New(resolutionMinutes int, samples []float64) (*Series, error) {
	if resolutionMinutes <= 0 || MinutesPerDay%resolutionMinutes != 0 {
		return nil, fmt.Errorf("timeseries: resolution %d min must divide a day", resolutionMinutes)
	}
	perDay := MinutesPerDay / resolutionMinutes
	if len(samples)%perDay != 0 {
		return nil, fmt.Errorf("timeseries: %d samples is not a whole number of %d-sample days", len(samples), perDay)
	}
	return &Series{ResolutionMinutes: resolutionMinutes, Samples: samples}, nil
}

// SamplesPerDay returns the number of samples recorded per day.
func (s *Series) SamplesPerDay() int { return MinutesPerDay / s.ResolutionMinutes }

// Days returns the number of whole days in the series.
func (s *Series) Days() int {
	perDay := s.SamplesPerDay()
	if perDay == 0 {
		return 0
	}
	return len(s.Samples) / perDay
}

// Day returns the samples of zero-based day d as a subslice (not a copy).
func (s *Series) Day(d int) ([]float64, error) {
	perDay := s.SamplesPerDay()
	if d < 0 || d >= s.Days() {
		return nil, fmt.Errorf("timeseries: day %d out of range [0,%d)", d, s.Days())
	}
	return s.Samples[d*perDay : (d+1)*perDay], nil
}

// At returns the sample at zero-based day d and intra-day sample index i.
func (s *Series) At(d, i int) (float64, error) {
	perDay := s.SamplesPerDay()
	if d < 0 || d >= s.Days() || i < 0 || i >= perDay {
		return 0, fmt.Errorf("timeseries: index (%d,%d) out of range", d, i)
	}
	return s.Samples[d*perDay+i], nil
}

// Peak returns the maximum sample in the series (zero for empty series).
func (s *Series) Peak() float64 { return maxOrZero(s.Samples) }

// Resample returns a new series at a coarser resolution by averaging
// groups of samples. The target resolution must be a multiple of the
// source resolution. Averaging (rather than decimating) models what a
// lower-rate data logger integrating over its period would record.
func (s *Series) Resample(resolutionMinutes int) (*Series, error) {
	if resolutionMinutes == s.ResolutionMinutes {
		cp := make([]float64, len(s.Samples))
		copy(cp, s.Samples)
		return &Series{ResolutionMinutes: resolutionMinutes, Samples: cp}, nil
	}
	if resolutionMinutes <= 0 || resolutionMinutes%s.ResolutionMinutes != 0 {
		return nil, fmt.Errorf("timeseries: cannot resample %d min to %d min", s.ResolutionMinutes, resolutionMinutes)
	}
	if MinutesPerDay%resolutionMinutes != 0 {
		return nil, fmt.Errorf("timeseries: resolution %d min must divide a day", resolutionMinutes)
	}
	group := resolutionMinutes / s.ResolutionMinutes
	out := make([]float64, 0, len(s.Samples)/group)
	for i := 0; i+group <= len(s.Samples); i += group {
		out = append(out, mean(s.Samples[i:i+group]))
	}
	return &Series{ResolutionMinutes: resolutionMinutes, Samples: out}, nil
}

// Decimate returns a new series at a coarser resolution by keeping the
// first sample of each group (point sampling). This models an instantaneous
// A/D conversion at the slot boundary — the quantity the paper's predictor
// actually consumes.
func (s *Series) Decimate(resolutionMinutes int) (*Series, error) {
	if resolutionMinutes <= 0 || resolutionMinutes%s.ResolutionMinutes != 0 {
		return nil, fmt.Errorf("timeseries: cannot decimate %d min to %d min", s.ResolutionMinutes, resolutionMinutes)
	}
	if MinutesPerDay%resolutionMinutes != 0 {
		return nil, fmt.Errorf("timeseries: resolution %d min must divide a day", resolutionMinutes)
	}
	group := resolutionMinutes / s.ResolutionMinutes
	out := make([]float64, 0, len(s.Samples)/group)
	for i := 0; i+group <= len(s.Samples); i += group {
		out = append(out, s.Samples[i])
	}
	return &Series{ResolutionMinutes: resolutionMinutes, Samples: out}, nil
}

// SlotView is the paper's Fig. 4 decomposition of a trace into N equal
// prediction slots per day. For every (day, slot) it exposes the power
// sample at the slot start — the value the on-line predictor measures —
// and the mean power over the slot's M samples — the value against which
// the paper's Eq. 7 error is computed.
//
// Slot additionally builds a per-slot prefix-sum column over the days of
// the Start samples, so the predictor's D-day windowed mean μD costs two
// loads and a division instead of a D-term sum. The evaluation engine in
// internal/optimize leans on this column for its O(1) μD.
type SlotView struct {
	// N is the number of slots per day (the sampling rate of the
	// prediction algorithm).
	N int
	// M is the number of underlying trace samples per slot.
	M int
	// DaysCount is the number of whole days covered.
	DaysCount int
	// Start[d*N+j] is the power sample at the beginning of slot j of day d.
	Start []float64
	// Mean[d*N+j] is the mean power over slot j of day d.
	Mean []float64
	// SlotMinutes is the slot length T in minutes (the prediction horizon).
	SlotMinutes int
	// StartPrefix[d*N+j] for d ∈ [0, DaysCount] is the sum of Start[d'*N+j]
	// over d' < d: a per-slot prefix over days. Built by Slot (or
	// BuildPrefix for hand-assembled views); nil until then.
	StartPrefix []float64
}

// ErrSlotting is wrapped by slot-construction errors.
var ErrSlotting = errors.New("timeseries: invalid slotting")

// Slot divides the series into n slots per day. The per-day sample count
// must be an integer multiple of n.
func (s *Series) Slot(n int) (*SlotView, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrSlotting, n)
	}
	perDay := s.SamplesPerDay()
	if perDay%n != 0 {
		return nil, fmt.Errorf("%w: %d samples/day not divisible into %d slots", ErrSlotting, perDay, n)
	}
	m := perDay / n
	days := s.Days()
	v := &SlotView{
		N:           n,
		M:           m,
		DaysCount:   days,
		Start:       make([]float64, days*n),
		Mean:        make([]float64, days*n),
		SlotMinutes: MinutesPerDay / n,
	}
	for d := 0; d < days; d++ {
		base := d * perDay
		for j := 0; j < n; j++ {
			seg := s.Samples[base+j*m : base+(j+1)*m]
			v.Start[d*n+j] = seg[0]
			v.Mean[d*n+j] = mean(seg)
		}
	}
	v.BuildPrefix()
	return v, nil
}

// BuildPrefix (re)computes the per-slot prefix-sum column from Start.
// Slot calls it automatically; call it manually after assembling a
// SlotView by hand or mutating Start. It is not safe to call concurrently
// with readers of the same view.
func (v *SlotView) BuildPrefix() {
	n, days := v.N, v.DaysCount
	if len(v.StartPrefix) != (days+1)*n {
		v.StartPrefix = make([]float64, (days+1)*n)
	}
	for d := 0; d < days; d++ {
		row, next := d*n, (d+1)*n
		for j := 0; j < n; j++ {
			v.StartPrefix[next+j] = v.StartPrefix[row+j] + v.Start[row+j]
		}
	}
}

// HasPrefix reports whether the prefix-sum column is present and sized
// for the view.
func (v *SlotView) HasPrefix() bool {
	return len(v.StartPrefix) == (v.DaysCount+1)*v.N
}

// WindowStartMean returns the mean of slot j's slot-start samples over
// days [d−D, d) in O(1) — the predictor's μD(j) as seen from day d. The
// caller must ensure 0 ≤ d−D and d ≤ DaysCount.
func (v *SlotView) WindowStartMean(d, j, D int) float64 {
	return (v.StartPrefix[d*v.N+j] - v.StartPrefix[(d-D)*v.N+j]) / float64(D)
}

// StartAt returns the slot-start sample for day d, slot j.
func (v *SlotView) StartAt(d, j int) float64 { return v.Start[d*v.N+j] }

// MeanAt returns the mean slot power for day d, slot j.
func (v *SlotView) MeanAt(d, j int) float64 { return v.Mean[d*v.N+j] }

// SlotEnergy returns the energy received during slot j of day d in
// watt-minutes (mean power × slot length), the quantity a harvested-energy
// manager budgets with.
func (v *SlotView) SlotEnergy(d, j int) float64 {
	return v.MeanAt(d, j) * float64(v.SlotMinutes)
}

// PeakMean returns the maximum mean-slot power across the whole view.
// The paper's region-of-interest threshold is 10% of this value.
func (v *SlotView) PeakMean() float64 { return maxOrZero(v.Mean) }

// PeakStart returns the maximum slot-start power across the whole view,
// the peak the slot-start error reference scales its threshold by.
func (v *SlotView) PeakStart() float64 { return maxOrZero(v.Start) }

// TotalSlots returns the number of (day, slot) cells in the view.
func (v *SlotView) TotalSlots() int { return v.DaysCount * v.N }

// Split converts a flat slot index back into (day, slot).
func (v *SlotView) Split(t int) (day, slot int) { return t / v.N, t % v.N }

// mean returns the arithmetic mean of xs, summed left to right, or zero
// for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOrZero returns the maximum of xs, or zero for an empty slice (an
// empty trace means no power was ever observed).
func maxOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
