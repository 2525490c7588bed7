package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

// randSeries builds a plausible power trace: non-negative by default with
// deterministic pseudo-random structure.
func randSeries(t *testing.T, res, days int, seed int64) *Series {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perDay := MinutesPerDay / res
	samples := make([]float64, perDay*days)
	for i := range samples {
		samples[i] = rng.Float64() * 1000
	}
	s, err := New(res, samples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCoarsenMatchesDirectSlotting(t *testing.T) {
	s := randSeries(t, 5, 9, 1)
	fine, err := s.Slot(96) // M=3
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{48, 32, 24, 12, 8, 6, 4, 3, 2, 1} {
		derived, err := fine.Coarsen(n)
		if err != nil {
			t.Fatalf("coarsen to %d: %v", n, err)
		}
		direct, err := s.Slot(n)
		if err != nil {
			t.Fatal(err)
		}
		if derived.N != n || derived.M != direct.M || derived.DaysCount != direct.DaysCount ||
			derived.SlotMinutes != direct.SlotMinutes {
			t.Fatalf("n=%d: geometry %+v vs %+v", n, derived, direct)
		}
		if !derived.HasPrefix() {
			t.Fatalf("n=%d: derived view lacks the prefix column", n)
		}
		for i := range direct.Start {
			if derived.Start[i] != direct.Start[i] {
				t.Fatalf("n=%d: Start[%d] = %v, direct %v", n, i, derived.Start[i], direct.Start[i])
			}
			if relDiff(derived.Mean[i], direct.Mean[i]) > 1e-12 {
				t.Fatalf("n=%d: Mean[%d] = %v, direct %v", n, i, derived.Mean[i], direct.Mean[i])
			}
		}
	}
}

// TestCoarsenFromUnitSlotsIsExact pins the bit-identical case: deriving
// from an M==1 view performs the same sequential sums as direct slotting.
func TestCoarsenFromUnitSlotsIsExact(t *testing.T) {
	s := randSeries(t, 15, 7, 2)
	base, err := s.Slot(s.SamplesPerDay()) // M=1
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{48, 24, 16, 12, 8, 6, 4, 3, 2, 1} {
		derived, err := base.Coarsen(n)
		if err != nil {
			t.Fatalf("coarsen to %d: %v", n, err)
		}
		direct, err := s.Slot(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range direct.Mean {
			if derived.Mean[i] != direct.Mean[i] || derived.Start[i] != direct.Start[i] {
				t.Fatalf("n=%d cell %d: derived (%v,%v) direct (%v,%v)", n, i,
					derived.Start[i], derived.Mean[i], direct.Start[i], direct.Mean[i])
			}
		}
	}
}

func TestCoarsenRejectsIncompatibleRates(t *testing.T) {
	s := randSeries(t, 30, 3, 3)
	v, err := s.Slot(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 48, 96, 36, 5} {
		if _, err := v.Coarsen(n); err == nil {
			t.Errorf("coarsen %d→%d accepted", v.N, n)
		}
	}
}

func TestPyramidLadder(t *testing.T) {
	s := randSeries(t, 5, 8, 4)
	p, err := NewPyramid(s, []int{96, 48, 24, 24, 0, 7}) // dup, zero and non-divisor skipped
	if err != nil {
		t.Fatal(err)
	}
	ns := p.Ns()
	want := []int{96, 48, 24}
	if len(ns) != len(want) {
		t.Fatalf("ladder Ns = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("ladder Ns = %v, want %v", ns, want)
		}
	}
	for _, n := range []int{288, 96, 48, 24, 12} { // 288 = base rate, 12 off-ladder
		v, err := p.View(n)
		if err != nil {
			t.Fatalf("view %d: %v", n, err)
		}
		direct, err := s.Slot(n)
		if err != nil {
			t.Fatal(err)
		}
		if !v.HasPrefix() {
			t.Fatalf("n=%d: pyramid view lacks the prefix column", n)
		}
		// Deriving from the M==1 base is bit-identical to direct slotting.
		for i := range direct.Mean {
			if v.Start[i] != direct.Start[i] {
				t.Fatalf("n=%d: Start[%d] differs", n, i)
			}
			if v.Mean[i] != direct.Mean[i] {
				t.Fatalf("n=%d: Mean[%d] = %v, direct %v", n, i, v.Mean[i], direct.Mean[i])
			}
		}
		again, err := p.View(n)
		if err != nil || again != v {
			t.Fatalf("view %d not cached: %p vs %p (%v)", n, again, v, err)
		}
	}
	if _, err := p.View(7); err == nil {
		t.Error("non-divisor rate accepted")
	}
}

func TestPyramidRejectsEmptySeries(t *testing.T) {
	if _, err := NewPyramid(nil, []int{48}); err == nil {
		t.Error("nil series accepted")
	}
	empty := &Series{ResolutionMinutes: 5}
	if _, err := NewPyramid(empty, []int{48}); err == nil {
		t.Error("empty series accepted")
	}
}

// TestPyramidDeterministicAcrossRequestOrder checks the property the
// experiment store relies on: the ladder fixes the derivation chain, so
// any request order yields bit-identical views.
func TestPyramidDeterministicAcrossRequestOrder(t *testing.T) {
	s := randSeries(t, 1, 6, 5)
	ladder := []int{288, 96, 48, 24}
	orders := [][]int{
		{288, 96, 48, 24},
		{24, 48, 96, 288},
		{48, 288, 24, 96},
	}
	var ref map[int]*SlotView
	for _, order := range orders {
		p, err := NewPyramid(s, ladder)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]*SlotView)
		for _, n := range order {
			v, err := p.View(n)
			if err != nil {
				t.Fatal(err)
			}
			got[n] = v
		}
		if ref == nil {
			ref = got
			continue
		}
		for n, v := range got {
			for i := range v.Mean {
				if v.Mean[i] != ref[n].Mean[i] || v.Start[i] != ref[n].Start[i] {
					t.Fatalf("order %v: view %d cell %d differs", order, n, i)
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}
