// Package adaptive implements realizable (non-clairvoyant) dynamic
// parameter-selection policies for the prediction algorithm — the future
// work the paper's Section IV-C motivates: its Table V shows what an
// ideal oracle picking (α, K) at every prediction could gain, and
// concludes "it is promising to develop dynamic parameters selection
// algorithms". The policies here close that loop using only information
// available on the node.
//
// # Setting
//
// At every slot the node makes one prediction with some candidate
// (α, K). One slot later the truth arrives, and — because Eq. 1 is cheap
// to evaluate for every candidate once its two terms are known — the
// node observes the loss every candidate *would* have suffered. This is
// the full-information "prediction with expert advice" setting, so the
// classic online-learning policies apply directly:
//
//   - FollowTheLeader: play the candidate with the smallest cumulative
//     loss so far; optimal for stationary weather, slow after changes.
//   - DiscountedFollowTheLeader: exponentially discount old losses, so
//     a week of storms stops dominating a clear spell.
//   - SlidingWindow: minimise the loss over the last W slots only.
//   - Hedge: exponential weights over candidates; the textbook
//     no-regret algorithm (deterministic argmax-weight variant, so runs
//     reproduce).
//
// None of these can beat the clairvoyant bound of Table V; the useful
// result (see experiments.TableVI) is that the drift-aware policies beat
// the best *fixed* parameters chosen in hindsight — i.e. the node tunes
// itself online and the offline per-site grid search becomes optional.
package adaptive

import (
	"fmt"
	"math"
)

// Candidate is one (α, K) arm of the selection grid.
type Candidate struct {
	Alpha float64
	K     int
}

// Selector is an online parameter-selection policy. Choose returns the
// index of the candidate to play next; Update delivers the loss vector
// of ALL candidates for the slot just scored (full information).
type Selector interface {
	// Name identifies the policy in reports.
	Name() string
	// Choose returns the candidate index to use for the next prediction.
	Choose() int
	// Update records the per-candidate losses of the last prediction
	// round. len(losses) equals the candidate count. Update must neither
	// modify losses nor retain it after returning: optimize.AdaptiveEval
	// hands the same slice to every selector of a pass and refills it on
	// the next slot.
	Update(losses []float64)
	// Reset returns the policy to its initial state.
	Reset()
}

// Grid builds the candidate list from alpha and K sets (alpha-major).
func Grid(alphas []float64, ks []int) ([]Candidate, error) {
	if len(alphas) == 0 || len(ks) == 0 {
		return nil, fmt.Errorf("adaptive: empty candidate grid")
	}
	out := make([]Candidate, 0, len(alphas)*len(ks))
	for _, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("adaptive: K %d < 1", k)
		}
		for _, a := range alphas {
			if a < 0 || a > 1 || math.IsNaN(a) {
				return nil, fmt.Errorf("adaptive: alpha %.3f out of [0,1]", a)
			}
			out = append(out, Candidate{Alpha: a, K: k})
		}
	}
	return out, nil
}

// FollowTheLeader plays the candidate with minimum cumulative loss.
type FollowTheLeader struct {
	cum []float64
}

// NewFollowTheLeader creates the policy for n candidates.
func NewFollowTheLeader(n int) (*FollowTheLeader, error) {
	if n < 1 {
		return nil, fmt.Errorf("adaptive: need at least one candidate")
	}
	return &FollowTheLeader{cum: make([]float64, n)}, nil
}

// Name implements Selector.
func (f *FollowTheLeader) Name() string { return "follow-the-leader" }

// Choose implements Selector: ties break toward the lowest index, so
// runs are deterministic.
func (f *FollowTheLeader) Choose() int { return argmin(f.cum) }

// Update implements Selector.
func (f *FollowTheLeader) Update(losses []float64) {
	for i, l := range losses {
		f.cum[i] += l
	}
}

// Reset implements Selector.
func (f *FollowTheLeader) Reset() {
	for i := range f.cum {
		f.cum[i] = 0
	}
}

// DiscountedFollowTheLeader is FTL with exponential forgetting:
// cum ← γ·cum + loss. γ=1 degenerates to FTL; smaller γ adapts faster.
type DiscountedFollowTheLeader struct {
	gamma float64
	cum   []float64
}

// NewDiscounted creates the discounted policy with factor 0 < gamma ≤ 1.
func NewDiscounted(n int, gamma float64) (*DiscountedFollowTheLeader, error) {
	if n < 1 {
		return nil, fmt.Errorf("adaptive: need at least one candidate")
	}
	if gamma <= 0 || gamma > 1 || math.IsNaN(gamma) {
		return nil, fmt.Errorf("adaptive: discount %.3f out of (0,1]", gamma)
	}
	return &DiscountedFollowTheLeader{gamma: gamma, cum: make([]float64, n)}, nil
}

// Name implements Selector.
func (d *DiscountedFollowTheLeader) Name() string {
	return fmt.Sprintf("discounted-ftl(%.3g)", d.gamma)
}

// Choose implements Selector.
func (d *DiscountedFollowTheLeader) Choose() int { return argmin(d.cum) }

// Update implements Selector.
func (d *DiscountedFollowTheLeader) Update(losses []float64) {
	for i, l := range losses {
		d.cum[i] = d.gamma*d.cum[i] + l
	}
}

// Reset implements Selector.
func (d *DiscountedFollowTheLeader) Reset() {
	for i := range d.cum {
		d.cum[i] = 0
	}
}

// SlidingWindow plays the candidate with minimum loss over the last W
// rounds. Memory is O(W × candidates) — on a real node W stays small
// (e.g. one day of slots).
type SlidingWindow struct {
	w      int
	ring   [][]float64
	sums   []float64
	filled int
	next   int
}

// NewSlidingWindow creates the policy for n candidates and window w.
func NewSlidingWindow(n, w int) (*SlidingWindow, error) {
	if n < 1 {
		return nil, fmt.Errorf("adaptive: need at least one candidate")
	}
	if w < 1 {
		return nil, fmt.Errorf("adaptive: window %d < 1", w)
	}
	s := &SlidingWindow{
		w:    w,
		ring: make([][]float64, w),
		sums: make([]float64, n),
	}
	for i := range s.ring {
		s.ring[i] = make([]float64, n)
	}
	return s, nil
}

// Name implements Selector.
func (s *SlidingWindow) Name() string { return fmt.Sprintf("window(%d)", s.w) }

// Choose implements Selector.
func (s *SlidingWindow) Choose() int { return argmin(s.sums) }

// Update implements Selector.
func (s *SlidingWindow) Update(losses []float64) {
	old := s.ring[s.next]
	if s.filled == s.w {
		for i, l := range old {
			s.sums[i] -= l
		}
	}
	copy(old, losses)
	for i, l := range losses {
		s.sums[i] += l
	}
	s.next = (s.next + 1) % s.w
	if s.filled < s.w {
		s.filled++
	}
}

// Reset implements Selector.
func (s *SlidingWindow) Reset() {
	for i := range s.sums {
		s.sums[i] = 0
	}
	for _, row := range s.ring {
		for i := range row {
			row[i] = 0
		}
	}
	s.filled, s.next = 0, 0
}

// Hedge maintains exponential weights w_i ← w_i·exp(−η·loss_i) and plays
// the argmax weight (the deterministic variant; losses should be scaled
// to O(1) by the caller — see LossScale).
type Hedge struct {
	eta    float64
	logW   []float64
	rounds int
}

// NewHedge creates the policy for n candidates with learning rate eta.
func NewHedge(n int, eta float64) (*Hedge, error) {
	if n < 1 {
		return nil, fmt.Errorf("adaptive: need at least one candidate")
	}
	if eta <= 0 || math.IsNaN(eta) || math.IsInf(eta, 0) {
		return nil, fmt.Errorf("adaptive: eta %.3f must be positive and finite", eta)
	}
	return &Hedge{eta: eta, logW: make([]float64, n)}, nil
}

// Name implements Selector.
func (h *Hedge) Name() string { return fmt.Sprintf("hedge(%.3g)", h.eta) }

// Choose implements Selector.
func (h *Hedge) Choose() int {
	best := 0
	for i, w := range h.logW {
		if w > h.logW[best] {
			best = i
		}
	}
	return best
}

// Update implements Selector. Weights are kept in log space and
// re-centred periodically so they never underflow.
func (h *Hedge) Update(losses []float64) {
	for i, l := range losses {
		h.logW[i] -= h.eta * l
	}
	h.rounds++
	if h.rounds%256 == 0 {
		m := h.logW[0]
		for _, w := range h.logW[1:] {
			if w > m {
				m = w
			}
		}
		for i := range h.logW {
			h.logW[i] -= m
		}
	}
}

// Reset implements Selector.
func (h *Hedge) Reset() {
	for i := range h.logW {
		h.logW[i] = 0
	}
	h.rounds = 0
}

// LossScale normalises an absolute prediction error into an O(1) loss
// for weight-based policies: |err| is divided by (ref + floor), clamped
// to [0, 2]. floor guards the night slots where ref ≈ 0.
func LossScale(absErr, ref, floor float64) float64 {
	den := ref + floor
	if den <= 0 {
		return 0
	}
	l := absErr / den
	if l > 2 {
		return 2
	}
	return l
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
