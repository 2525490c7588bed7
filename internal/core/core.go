// Package core implements the solar harvested-energy prediction algorithm
// evaluated by the paper (Recas et al. [5], often called WCMA — weather
// conditioned moving average) together with the baselines it is compared
// against and the dynamic (clairvoyant) parameter-selection study of the
// paper's Section IV-C.
//
// Algorithm (paper Section II)
//
// A day is discretised into N equal slots; power is sampled once per slot.
// With ẽ(j) the current day's measured slot powers and e(i,j) the matrix
// of the last D days' slot powers, the power at the start of slot n+1 is
// predicted as
//
//	ê(n+1) = α·ẽ(n) + (1−α)·μD(n+1)·ΦK            (Eq. 1)
//	μD(j)  = (Σ_{i=1..D} e(i,j)) / D               (Eq. 2)
//	ΦK     = Σ_k θ(k)·η(k) / Σ_k θ(k)              (Eq. 3)
//	η(k)   = ẽ(n−K+k) / μD(n−K+k)                  (Eq. 4)
//	θ(k)   = k/K                                    (Eq. 5)
//
// The first term of Eq. 1 is the persistence term; the second is the
// conditioned average term where ΦK measures how much brighter or
// cloudier the current day is than the D-day history.
//
// Numerical edge cases not pinned down by the paper are resolved as
// follows and exercised by the ablation benches:
//   - slots before the start of the current day (n−K+k < 0) take the
//     corresponding measurement of the most recent full day;
//   - ratios η with μD below a small epsilon (night slots) contribute the
//     neutral value 1, so night history neither inflates nor deflates ΦK;
//   - ratios η are clamped to [0, EtaMax]: around dawn both ẽ and μD are
//     tiny, and their quotient is numerically meaningless noise that can
//     reach 10⁵ and destroy the next prediction. Physically η is "how
//     much brighter is today than the average day", which cannot
//     plausibly exceed a small constant; the clamp is scale-free so the
//     algorithm's homogeneity is preserved;
//   - predictions are clamped at zero (harvested power is nonnegative).
package core

import (
	"fmt"
	"math"
)

// MuEpsilon is the μD threshold below which a ratio η(k) is treated as
// neutral (1). Slot averages below this value are night or deep-twilight
// samples whose ratios are numerically meaningless.
const MuEpsilon = 1e-9

// EtaMax bounds each brightness ratio η(k) = ẽ/μD. Dawn and dusk slots
// divide two near-zero powers and can produce arbitrarily large
// quotients; physically the "current day brightness versus history"
// factor is O(1). The clamp is dimensionless, so predictions remain
// positively homogeneous in the input power scale.
const EtaMax = 4.0

// Params are the tunable parameters of the prediction algorithm at a
// fixed sampling rate N.
type Params struct {
	// Alpha weighs persistence against the conditioned average, 0 ≤ α ≤ 1.
	Alpha float64
	// D is the number of past days in the history matrix, D ≥ 1.
	D int
	// K is the number of current-day slots conditioning ΦK, K ≥ 1.
	K int
}

// Validate reports whether the parameters are in the algorithm's domain.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Alpha > 1 || math.IsNaN(p.Alpha) {
		return fmt.Errorf("core: alpha %.3f out of [0,1]", p.Alpha)
	}
	if p.D < 1 {
		return fmt.Errorf("core: D %d < 1", p.D)
	}
	if p.K < 1 {
		return fmt.Errorf("core: K %d < 1", p.K)
	}
	return nil
}

// Predictor is the online WCMA predictor. Feed it one measured slot power
// per slot with Observe, obtain the next-slot forecast with Predict.
//
// The zero value is not usable; construct with New. The predictor keeps a
// ring buffer of the last D full days plus the partially elapsed current
// day, mirroring the E(D×N) matrix and Ẽ(N) vector of the paper's Fig. 3.
//
// # Ownership and concurrency
//
// A Predictor is single-writer, multi-reader: Observe (and Reset) mutate
// the history matrix, the μD table and the rolling ΦK window, and must be
// called from exactly one goroutine — the session that owns the
// predictor's measurement stream. Between Observes, any number of
// concurrent readers may call Predict, Forecast, PredictWith, Terms and
// Phi: they only read predictor state. A serving layer that shares one
// predictor across requests must therefore finish feeding it (replay the
// whole observation stream in the computing goroutine) before publishing
// it, and treat the published predictor as read-only — the pattern
// internal/serve follows, verified under -race. A session that needs to
// keep observing owns its predictor exclusively and never shares it.
type Predictor struct {
	params Params
	n      int // slots per day

	// hist is the D×N history ring; hist[r][j] is slot j of some past
	// day. rows filled so far is histDays.
	hist     [][]float64
	histNext int // ring insertion index
	histDays int // number of valid rows (≤ D)

	// cur is the current day's measurements up to curSlot (exclusive).
	cur     []float64
	curSlot int

	// prev is the most recent completed day, used for the K-window
	// wrap-around at the start of a day.
	prev      []float64
	prevValid bool

	// muTable[j] is μD(j) over the current history, refreshed once per
	// day roll so every μD lookup during the day is a single load instead
	// of a D-term sum. The refresh re-sums the ring rows in the same
	// order muD historically did, so predictions are bit-identical to the
	// naive implementation.
	muTable []float64

	// Rolling ΦK window state. Because θ(i) = i/K is linear in the window
	// position, ΦK needs only two running sums: phiP = Ση over the last K
	// ratios and phiW = Σ i·η with i = 1 for the oldest ratio up to K for
	// the newest, giving Φ = (W/K)/Σθ. Observe slides both in O(1)
	// (W ← W − P + K·η_new, P ← P − η_old + η_new); etaRing holds the
	// resident ratios so the evicted η_old is known, with
	// etaRing[ringPos] the oldest. rollDay rebuilds the window against
	// the refreshed μD table — an O(K) resync once per day that also
	// bounds the slide's floating-point drift to one day of accumulation.
	// phiDen caches Σθ accumulated in the direct walk's order.
	etaRing []float64
	ringPos int
	phiP    float64
	phiW    float64
	phiDen  float64
}

// New creates a Predictor for n slots per day with the given parameters.
func New(n int, params Params) (*Predictor, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 slots per day, got %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.K > n {
		return nil, fmt.Errorf("core: K %d exceeds slots per day %d", params.K, n)
	}
	p := &Predictor{
		params:  params,
		n:       n,
		hist:    make([][]float64, params.D),
		cur:     make([]float64, n),
		prev:    make([]float64, n),
		muTable: make([]float64, n),
		etaRing: make([]float64, params.K),
	}
	for i := range p.hist {
		p.hist[i] = make([]float64, n)
	}
	for i := 1; i <= params.K; i++ {
		p.phiDen += float64(i) / float64(params.K)
	}
	p.resetPhiWindow()
	return p, nil
}

// N returns the configured slots per day.
func (p *Predictor) N() int { return p.n }

// Params returns the predictor's parameters.
func (p *Predictor) Params() Params { return p.params }

// HistoryDays returns how many full days have been absorbed, capped at D.
func (p *Predictor) HistoryDays() int { return p.histDays }

// Ready reports whether the history matrix is fully populated (D days),
// after which predictions use the complete μD average.
func (p *Predictor) Ready() bool { return p.histDays >= p.params.D }

// Observe records the measured power at the start of slot `slot` of the
// current day. Slots must be observed in order 0,1,2,…,N−1; observing
// slot 0 after slot N−1 rolls the current day into history.
//
// Observe mutates the predictor and must only be called by its owning
// session goroutine; see the Predictor ownership contract.
func (p *Predictor) Observe(slot int, power float64) error {
	if slot < 0 || slot >= p.n {
		return fmt.Errorf("core: slot %d out of range [0,%d)", slot, p.n)
	}
	if power < 0 || math.IsNaN(power) || math.IsInf(power, 0) {
		return fmt.Errorf("core: invalid power %v", power)
	}
	// curSlot runs 0..n, so the expected slot is curSlot wrapped at n.
	want := p.curSlot
	if want == p.n {
		want = 0
	}
	if slot != want {
		return fmt.Errorf("core: slot %d observed out of order (expected %d)", slot, want)
	}
	if slot == 0 && p.curSlot == p.n {
		p.rollDay()
	}
	p.cur[slot] = power
	p.curSlot = slot + 1
	p.slidePhi(etaFor(power, p.muTable[slot]))
	return nil
}

// etaFor computes the clamped brightness ratio of a measurement against
// its slot's μD, with the same neutral night-slot fallback as the direct
// window walk in phiAt.
func etaFor(meas, mu float64) float64 {
	if mu <= MuEpsilon {
		return 1
	}
	eta := meas / mu
	if eta > EtaMax {
		eta = EtaMax
	}
	return eta
}

// slidePhi advances the rolling ΦK window by one observed slot: the new
// ratio enters at weight K while every resident ratio's weight drops by
// one (W sheds P — which still contains the evicted oldest ratio at
// weight one — and gains K·η_new), then P swaps the oldest ratio for
// the new one.
func (p *Predictor) slidePhi(eta float64) {
	k := p.params.K
	p.phiW += float64(k)*eta - p.phiP
	p.phiP += eta - p.etaRing[p.ringPos]
	p.etaRing[p.ringPos] = eta
	p.ringPos++
	if p.ringPos == k {
		p.ringPos = 0
	}
}

// resetPhiWindow restores the rolling window to its initial all-neutral
// state (η = 1, the ratio unavailable history contributes).
func (p *Predictor) resetPhiWindow() {
	p.ringPos = 0
	p.phiP, p.phiW = 0, 0
	for i := 1; i <= p.params.K; i++ {
		p.etaRing[i-1] = 1
		p.phiP++
		p.phiW += float64(i)
	}
}

// rollDay moves the completed current day into the history ring and
// refreshes the μD table. The history only changes here, so the N×D
// refresh once per day replaces a D-term sum inside every prediction —
// the same bookkeeping the embedded port (internal/mcu.Kernel) does with
// its running sums.
func (p *Predictor) rollDay() {
	copy(p.prev, p.cur)
	p.prevValid = true
	copy(p.hist[p.histNext], p.cur)
	p.histNext = (p.histNext + 1) % p.params.D
	if p.histDays < p.params.D {
		p.histDays++
	}
	p.curSlot = 0
	// μD row by row. Each slot's sum must add its history rows in
	// ascending r starting from +0, which fixes every μD bit; walking
	// whole rows keeps that order while the n running sums stay
	// independent of each other.
	mu := p.muTable
	clear(mu)
	for r := 0; r < p.histDays; r++ {
		for j, v := range p.hist[r][:len(mu)] {
			mu[j] += v
		}
	}
	days := float64(p.histDays)
	for j := range mu {
		mu[j] /= days
	}
	// Resync the rolling ΦK window: the μD table just changed, so the η
	// ratios of the last K observed slots (the tail of the day that just
	// rolled into prev) must be recomputed against the new history.
	k := p.params.K
	p.ringPos = 0
	p.phiP, p.phiW = 0, 0
	for i := 1; i <= k; i++ {
		slot := p.n - k + i - 1
		eta := etaFor(p.prev[slot], p.muTable[slot])
		p.etaRing[i-1] = eta
		p.phiP += eta
		p.phiW += float64(i) * eta
	}
}

// muD returns the μD average of slot j over the valid history rows, from
// the per-day-refreshed table. With no history at all it returns 0 (the
// table's initial state).
func (p *Predictor) muD(j int) float64 {
	return p.muTable[j]
}

// MuD returns the climatological slot average μD(j) over the current
// history — the conditioned-average anchor of Eq. 1 and the fallback a
// degraded-mode forecaster serves when the input stream cannot be
// trusted (internal/guard). It only reads predictor state, so concurrent
// callers are safe between Observes.
func (p *Predictor) MuD(j int) (float64, error) {
	if j < 0 || j >= p.n {
		return 0, fmt.Errorf("core: slot %d out of range [0,%d)", j, p.n)
	}
	return p.muTable[j], nil
}

// currentOrPrev returns the measurement for current-day slot index j,
// which may be negative to reach into the previous day (wrap-around for
// the ΦK window at the start of a day).
func (p *Predictor) currentOrPrev(j int) (float64, bool) {
	if j >= 0 {
		if j >= p.curSlot {
			return 0, false // not yet observed
		}
		return p.cur[j], true
	}
	if !p.prevValid {
		return 0, false
	}
	idx := p.n + j
	if idx < 0 {
		return 0, false
	}
	return p.prev[idx], true
}

// Phi computes the conditioning factor ΦK for a prediction made after
// observing slot n (zero-based). For the live edge — n being the last
// observed slot, the only n Predict ever evaluates — it returns the
// rolling-window value maintained by Observe in O(1) instead of the
// O(K) walk; any other n falls back to the direct walk. It is exported
// for white-box tests and the fixed-point cross-validation in
// internal/mcu.
func (p *Predictor) Phi(n int) float64 {
	if p.curSlot > 0 && n == p.curSlot-1 {
		return p.phiRolling()
	}
	return p.phiAt(n, p.params.K)
}

// phiRolling evaluates the maintained window: Φ = (W/K)/Σθ. It differs
// from phiAt only by floating-point association (Σ(i/K)·η versus
// (Σ i·η)/K), bounded by the once-per-day resync in rollDay.
func (p *Predictor) phiRolling() float64 {
	return p.phiW / float64(p.params.K) / p.phiDen
}

// phiAt computes ΦK at an arbitrary window size k by the direct Eq. 3
// walk — the O(k) reference implementation the rolling path is verified
// against, and the evaluation Terms uses for non-configured k. It only
// reads predictor state, so concurrent callers are safe as long as no
// Observe runs.
func (p *Predictor) phiAt(n, k int) float64 {
	var num, den float64
	for i := 1; i <= k; i++ {
		theta := float64(i) / float64(k)
		slot := n - k + i // current-day index of the i-th window slot
		meas, ok := p.currentOrPrev(slot)
		eta := 1.0
		if ok {
			var mu float64
			if slot >= 0 {
				mu = p.muD(slot)
			} else {
				mu = p.muD(p.n + slot)
			}
			if mu > MuEpsilon {
				eta = meas / mu
				if eta > EtaMax {
					eta = EtaMax
				}
			}
		}
		num += theta * eta
		den += theta
	}
	return num / den
}

// Predict returns the forecast power at the start of the next slot, i.e.
// the slot after the last observed one. The next slot may be slot 0 of
// the following day, in which case μD of slot 0 is used.
//
// Predict returns an error when no slot of the current day has been
// observed yet.
func (p *Predictor) Predict() (float64, error) {
	if p.curSlot == 0 {
		return 0, fmt.Errorf("core: no observation yet for the current day")
	}
	n := p.curSlot - 1 // last observed slot
	next := p.curSlot  // n+1, wrapped to slot 0 after the day's last slot
	if next == p.n {
		next = 0
	}
	mu := p.muD(next)
	phi := p.phiRolling()
	alpha := p.params.Alpha
	pred := alpha*p.cur[n] + (1-alpha)*mu*phi
	if pred < 0 {
		pred = 0
	}
	return pred, nil
}

// Forecast returns forecasts for the next h slots after the last
// observed one, recursively applying Eq. 1: step 1 is exactly Predict();
// each further step feeds the previous forecast back into the
// persistence term while the conditioned term uses that slot's μD with
// the current-day brightness factor ΦK held at its live value (the
// forecaster observes nothing beyond the horizon's start, so Φ cannot be
// updated). Forecasts wrap across the day boundary using the current
// history's μD table.
//
// Forecast never mutates the predictor, so any number of concurrent
// readers may call it between Observes — the property the prediction
// service relies on to share one replayed predictor across requests.
func (p *Predictor) Forecast(h int) ([]float64, error) {
	if p.curSlot == 0 {
		return nil, fmt.Errorf("core: no observation yet for the current day")
	}
	if h < 1 {
		return nil, fmt.Errorf("core: forecast horizon %d < 1", h)
	}
	n := p.curSlot - 1 // last observed slot
	phi := p.phiRolling()
	alpha := p.params.Alpha
	out := make([]float64, h)
	prev := p.cur[n]
	for i := 1; i <= h; i++ {
		j := (n + i) % p.n
		pred := alpha*prev + (1-alpha)*p.muD(j)*phi
		if pred < 0 {
			pred = 0
		}
		out[i-1] = pred
		prev = pred
	}
	return out, nil
}

// PredictWith evaluates Eq. 1 for an arbitrary (α, K) without changing
// the predictor's configured parameters, reusing the current history
// state. D is fixed by construction (it determines storage). This is the
// primitive used by the dynamic parameter-selection study.
func (p *Predictor) PredictWith(alpha float64, k int) (float64, error) {
	if alpha < 0 || alpha > 1 {
		return 0, fmt.Errorf("core: alpha %.3f out of [0,1]", alpha)
	}
	pers, cond, err := p.Terms(k)
	if err != nil {
		return 0, err
	}
	return Combine(alpha, pers, cond), nil
}

// Terms returns the two building blocks of Eq. 1 for the next-slot
// prediction using an arbitrary window size k: the persistence term
// ẽ(n) and the conditioned average μD(n+1)·ΦK. A prediction for any α is
// then α·pers + (1−α)·cond, letting callers sweep α without recomputing
// ΦK. D is fixed by construction.
//
// k is threaded explicitly down to the window walk — Terms never
// mutates the predictor, so any number of concurrent readers may call
// it (and Phi, Predict, PredictWith) between Observes.
func (p *Predictor) Terms(k int) (pers, cond float64, err error) {
	if p.curSlot == 0 {
		return 0, 0, fmt.Errorf("core: no observation yet for the current day")
	}
	if k < 1 || k > p.n {
		return 0, 0, fmt.Errorf("core: K %d out of range [1,%d]", k, p.n)
	}
	n := p.curSlot - 1
	var phi float64
	if k == p.params.K {
		phi = p.phiRolling() // the maintained window is exactly this k
	} else {
		phi = p.phiAt(n, k)
	}
	next := (n + 1) % p.n
	return p.cur[n], p.muD(next) * phi, nil
}

// Combine evaluates Eq. 1 from terms produced by Terms, clamping at zero.
func Combine(alpha, pers, cond float64) float64 {
	pred := alpha*pers + (1-alpha)*cond
	if pred < 0 {
		return 0
	}
	return pred
}

// Reset clears all state, returning the predictor to its initial
// condition with the same parameters.
func (p *Predictor) Reset() {
	for i := range p.hist {
		for j := range p.hist[i] {
			p.hist[i][j] = 0
		}
	}
	for j := range p.cur {
		p.cur[j] = 0
		p.prev[j] = 0
		p.muTable[j] = 0
	}
	p.histNext, p.histDays, p.curSlot = 0, 0, 0
	p.prevValid = false
	p.resetPhiWindow()
}
