package timeseries

import (
	"fmt"
	"sort"
	"sync"
)

// Coarsen derives the slot view at a coarser sampling rate n from the
// receiver by aggregation: the derived slot start is the start sample of
// the first constituent fine slot, and the derived slot mean is the mean
// of the constituent fine-slot means. n must strictly divide the
// receiver's rate.
//
// Because every fine slot covers the same number of raw samples, the mean
// of means equals the directly slotted mean up to floating-point
// association; when the receiver has M == 1 (its slots are the raw
// samples) the aggregation performs the same sequential sums as
// Series.Slot and the result is bit-identical to direct slotting. The
// Start column is bit-identical in either case. The derived view carries
// a freshly built prefix-sum column.
func (v *SlotView) Coarsen(n int) (*SlotView, error) {
	if n <= 0 || n >= v.N || v.N%n != 0 {
		return nil, fmt.Errorf("%w: cannot coarsen %d slots/day to %d", ErrSlotting, v.N, n)
	}
	g := v.N / n
	days := v.DaysCount
	out := &SlotView{
		N:           n,
		M:           v.M * g,
		DaysCount:   days,
		Start:       make([]float64, days*n),
		Mean:        make([]float64, days*n),
		SlotMinutes: MinutesPerDay / n,
	}
	for d := 0; d < days; d++ {
		row := d * v.N
		for j := 0; j < n; j++ {
			fine := row + j*g
			out.Start[d*n+j] = v.Start[fine]
			// Sequential sum over the g fine means, matching the
			// accumulation order of Series.Slot on an M==1 receiver.
			var sum float64
			for _, m := range v.Mean[fine : fine+g] {
				sum += m
			}
			out.Mean[d*n+j] = sum / float64(g)
		}
	}
	out.BuildPrefix()
	return out, nil
}

// Pyramid caches the slot views of one series at multiple sampling
// rates, deriving every coarser view from one finest-grain base by
// aggregation (SlotView.Coarsen) instead of re-slotting the raw trace
// per rate.
//
// The base is the unit slotting at N = samples-per-day: its Start and
// Mean columns both alias the raw sample slice (M = 1 makes every slot
// its own sample), so it costs no memory and no precomputation. Because
// aggregating an M == 1 donor performs the same sequential sums as
// Series.Slot, every derived view is bit-identical to direct slotting —
// and independent of request order or goroutine scheduling, the property
// the experiment store's determinism rests on. The ladder rates are
// built eagerly at construction; other rates are derived on first
// request. Ladder rates that do not divide the series' per-day sample
// count are skipped (requesting them later reports the usual slotting
// error).
//
// All methods are safe for concurrent use. Memory is bounded by the set
// of distinct rates requested: one view holds three float64 columns of
// days x n (plus one prefix row), and nothing is ever evicted.
type Pyramid struct {
	series *Series
	// base is the prefix-free unit slotting whose columns alias the raw
	// samples; it is the donor for every derivation and never escapes.
	base *SlotView

	mu    sync.Mutex
	views map[int]*SlotView
}

// NewPyramid builds a pyramid over the series, eagerly building the
// valid ladder rates.
func NewPyramid(s *Series, ladder []int) (*Pyramid, error) {
	if s == nil || len(s.Samples) == 0 {
		return nil, fmt.Errorf("%w: empty series", ErrSlotting)
	}
	perDay := s.SamplesPerDay()
	p := &Pyramid{
		series: s,
		base: &SlotView{
			N:           perDay,
			M:           1,
			DaysCount:   s.Days(),
			Start:       s.Samples,
			Mean:        s.Samples,
			SlotMinutes: s.ResolutionMinutes,
		},
		views: make(map[int]*SlotView),
	}
	seen := make(map[int]bool)
	var valid []int
	for _, n := range ladder {
		if n > 0 && perDay%n == 0 && !seen[n] {
			seen[n] = true
			valid = append(valid, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(valid)))
	for _, n := range valid {
		v, err := p.build(n)
		if err != nil {
			return nil, err
		}
		p.views[n] = v
	}
	return p, nil
}

// build derives the view at rate n from the base (bit-identical to
// slotting the series directly), falling back to Series.Slot for the
// base rate itself and for invalid rates (which report its error).
func (p *Pyramid) build(n int) (*SlotView, error) {
	if n > 0 && n < p.base.N && p.base.N%n == 0 {
		return p.base.Coarsen(n)
	}
	return p.series.Slot(n)
}

// View returns the cached slot view at n slots per day, deriving or
// slotting it on first request.
func (p *Pyramid) View(n int) (*SlotView, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.views[n]; ok {
		return v, nil
	}
	v, err := p.build(n)
	if err != nil {
		return nil, err
	}
	p.views[n] = v
	return v, nil
}

// Series returns the underlying raw series.
func (p *Pyramid) Series() *Series { return p.series }

// Ns returns the cached sampling rates in descending order.
func (p *Pyramid) Ns() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	ns := make([]int, 0, len(p.views))
	for n := range p.views {
		ns = append(ns, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ns)))
	return ns
}
