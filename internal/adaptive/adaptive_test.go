package adaptive

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGrid(t *testing.T) {
	g, err := Grid([]float64{0, 0.5, 1}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 6 {
		t.Fatalf("grid size %d", len(g))
	}
	if g[0] != (Candidate{Alpha: 0, K: 1}) || g[5] != (Candidate{Alpha: 1, K: 2}) {
		t.Errorf("grid layout: %v", g)
	}
	if _, err := Grid(nil, []int{1}); err == nil {
		t.Error("empty alphas accepted")
	}
	if _, err := Grid([]float64{0.5}, nil); err == nil {
		t.Error("empty ks accepted")
	}
	if _, err := Grid([]float64{-1}, []int{1}); err == nil {
		t.Error("bad alpha accepted")
	}
	if _, err := Grid([]float64{0.5}, []int{0}); err == nil {
		t.Error("bad K accepted")
	}
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewFollowTheLeader(0); err == nil {
		t.Error("FTL n=0 accepted")
	}
	if _, err := NewDiscounted(3, 0); err == nil {
		t.Error("gamma=0 accepted")
	}
	if _, err := NewDiscounted(3, 1.5); err == nil {
		t.Error("gamma>1 accepted")
	}
	if _, err := NewSlidingWindow(3, 0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := NewHedge(3, 0); err == nil {
		t.Error("eta=0 accepted")
	}
	if _, err := NewHedge(3, math.Inf(1)); err == nil {
		t.Error("eta=Inf accepted")
	}
}

func TestFTLTracksBestArm(t *testing.T) {
	f, err := NewFollowTheLeader(3)
	if err != nil {
		t.Fatal(err)
	}
	// Arm 1 is consistently best.
	for i := 0; i < 50; i++ {
		f.Update([]float64{0.5, 0.1, 0.9})
	}
	if f.Choose() != 1 {
		t.Errorf("FTL chose %d, want 1", f.Choose())
	}
	f.Reset()
	if f.Choose() != 0 {
		t.Error("after reset ties break to 0")
	}
}

func TestFTLSlowAfterRegimeChange(t *testing.T) {
	// FTL needs as many rounds as the old regime lasted to switch;
	// discounted FTL switches quickly. This is the design rationale.
	ftl, _ := NewFollowTheLeader(2)
	disc, _ := NewDiscounted(2, 0.9)
	for i := 0; i < 100; i++ {
		ftl.Update([]float64{0.1, 0.9})
		disc.Update([]float64{0.1, 0.9})
	}
	// Regime flips: arm 1 becomes best.
	for i := 0; i < 20; i++ {
		ftl.Update([]float64{0.9, 0.1})
		disc.Update([]float64{0.9, 0.1})
	}
	if disc.Choose() != 1 {
		t.Error("discounted FTL should have switched after 20 rounds")
	}
	if ftl.Choose() != 0 {
		t.Error("plain FTL should still be stuck on the old leader")
	}
}

func TestDiscountedGammaOneEqualsFTL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ftl, _ := NewFollowTheLeader(4)
	disc, _ := NewDiscounted(4, 1)
	for i := 0; i < 200; i++ {
		losses := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ftl.Update(losses)
		disc.Update(losses)
		if ftl.Choose() != disc.Choose() {
			t.Fatalf("round %d: FTL %d vs discounted(1) %d", i, ftl.Choose(), disc.Choose())
		}
	}
}

func TestSlidingWindowForgets(t *testing.T) {
	s, err := NewSlidingWindow(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Update([]float64{0.1, 0.9})
	}
	if s.Choose() != 0 {
		t.Fatal("window should prefer arm 0")
	}
	// 10 rounds of the new regime completely flush the window.
	for i := 0; i < 10; i++ {
		s.Update([]float64{0.9, 0.1})
	}
	if s.Choose() != 1 {
		t.Error("window should have fully switched")
	}
	s.Reset()
	if s.Choose() != 0 || s.filled != 0 {
		t.Error("reset incomplete")
	}
}

func TestSlidingWindowSumsMatchDirect(t *testing.T) {
	// Property: ring-buffer maintenance equals a direct sum over the
	// last W loss vectors.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, w, rounds = 3, 7, 60
		s, err := NewSlidingWindow(n, w)
		if err != nil {
			return false
		}
		var history [][]float64
		for r := 0; r < rounds; r++ {
			losses := make([]float64, n)
			for i := range losses {
				losses[i] = rng.Float64()
			}
			s.Update(losses)
			history = append(history, losses)
			// Direct sum over the last ≤w rounds.
			direct := make([]float64, n)
			from := len(history) - w
			if from < 0 {
				from = 0
			}
			for _, h := range history[from:] {
				for i, l := range h {
					direct[i] += l
				}
			}
			for i := range direct {
				if math.Abs(direct[i]-s.sums[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHedgeConvergesToBestArm(t *testing.T) {
	h, err := NewHedge(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		// Arm 2 best on average, with noise.
		h.Update([]float64{
			0.5 + 0.3*rng.Float64(),
			0.6 + 0.3*rng.Float64(),
			0.2 + 0.3*rng.Float64(),
		})
	}
	if h.Choose() != 2 {
		t.Errorf("hedge chose %d, want 2", h.Choose())
	}
}

func TestHedgeLogSpaceStable(t *testing.T) {
	// Thousands of max-loss updates must not underflow or produce NaN.
	h, _ := NewHedge(4, 1)
	for i := 0; i < 10000; i++ {
		h.Update([]float64{2, 2, 2, 1.99})
	}
	if got := h.Choose(); got != 3 {
		t.Errorf("choose %d, want 3", got)
	}
	for _, w := range h.logW {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("log weights degenerated")
		}
	}
	h.Reset()
	if h.Choose() != 0 || h.rounds != 0 {
		t.Error("reset incomplete")
	}
}

func TestLossScale(t *testing.T) {
	if LossScale(50, 100, 10) != 50.0/110 {
		t.Error("scale arithmetic")
	}
	if LossScale(1e9, 100, 10) != 2 {
		t.Error("clamp at 2")
	}
	if LossScale(5, 0, 0) != 0 {
		t.Error("zero denominator guard")
	}
	if LossScale(5, 0, 10) != 0.5 {
		t.Error("floor keeps night losses bounded")
	}
}

func TestNames(t *testing.T) {
	f, _ := NewFollowTheLeader(2)
	d, _ := NewDiscounted(2, 0.95)
	s, _ := NewSlidingWindow(2, 48)
	h, _ := NewHedge(2, 0.3)
	for _, sel := range []Selector{f, d, s, h} {
		if sel.Name() == "" {
			t.Error("empty name")
		}
	}
}

func TestSelectorsDeterministic(t *testing.T) {
	build := func() []Selector {
		f, _ := NewFollowTheLeader(5)
		d, _ := NewDiscounted(5, 0.97)
		s, _ := NewSlidingWindow(5, 16)
		h, _ := NewHedge(5, 0.4)
		return []Selector{f, d, s, h}
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(77))
	for r := 0; r < 200; r++ {
		losses := make([]float64, 5)
		for i := range losses {
			losses[i] = rng.Float64()
		}
		for i := range a {
			if a[i].Choose() != b[i].Choose() {
				t.Fatalf("%s diverged at round %d", a[i].Name(), r)
			}
			a[i].Update(losses)
			b[i].Update(losses)
		}
	}
}

// TestSelectorsLeaveLossesUnchanged pins the Update contract that lets
// optimize.AdaptiveEval share one loss vector across selectors: Update
// neither writes to its argument nor keeps it, so a selector whose
// buffer is scribbled over after each round chooses exactly like a twin
// fed private copies. 600 rounds cover Hedge's re-centring (every 256
// rounds) and several wraps of the sliding window's ring.
func TestSelectorsLeaveLossesUnchanged(t *testing.T) {
	const n = 7
	build := func() []Selector {
		f, _ := NewFollowTheLeader(n)
		d, _ := NewDiscounted(n, 0.97)
		s, _ := NewSlidingWindow(n, 16)
		h, _ := NewHedge(n, 0.4)
		return []Selector{f, d, s, h}
	}
	shared, private := build(), build()
	rng := rand.New(rand.NewSource(29))
	losses := make([]float64, n)
	want := make([]float64, n)
	for r := 0; r < 600; r++ {
		for i := range losses {
			losses[i] = 2 * rng.Float64()
		}
		copy(want, losses)
		for i, sel := range shared {
			if got, exp := sel.Choose(), private[i].Choose(); got != exp {
				t.Fatalf("%s round %d: chose %d, twin chose %d", sel.Name(), r, got, exp)
			}
			sel.Update(losses)
			for j := range losses {
				if math.Float64bits(losses[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s round %d: Update changed losses[%d] %v -> %v",
						sel.Name(), r, j, want[j], losses[j])
				}
			}
			private[i].Update(append([]float64(nil), want...))
		}
		for i := range losses {
			losses[i] = math.NaN()
		}
	}
}
