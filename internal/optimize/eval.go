// Package optimize evaluates the prediction algorithm over full-year
// traces and performs the paper's exhaustive parameter exploration
// (Section IV): grid search over α, D and K at each sampling rate N,
// under either error definition (MAPE against mean slot power, MAPE′
// against the slot-start sample), plus the clairvoyant dynamic-parameter
// study of Section IV-C.
//
// Two evaluation paths exist and are tested against each other:
//
//   - the online path drives internal/core.Predictor slot by slot exactly
//     as a deployed node would;
//   - the vectorized path is a precomputed, share-everything engine:
//     μD costs O(1) via the slot view's per-slot prefix-sum column, the
//     region-of-interest filter is resolved once per evaluator so night
//     slots are never evaluated at all, the brightness ratios η feeding
//     ΦK are cached per history depth D and shared by every K and every α
//     of a sweep, and all inner loops run on preallocated per-worker
//     scratch (zero allocations per prediction). Grid search pulls whole
//     D-blocks from a work channel so one η cache serves a (D, ×K, ×α)
//     sub-grid. It is two to three orders of magnitude faster than the
//     online path on grid-search workloads.
//
// Within the vectorized path two further asymptotic reductions apply
// (see the README's kernel notes for the recurrences and the drift
// analysis): ΦK is maintained as a rolling window over the η cache —
// θ(i) = i/K is linear, so a plain sum P = Ση and a weighted sum
// W = Σ i·η slide in O(1) per source slot, re-initialised at each day
// boundary where the cache switches μD windows — cutting a (D, K) block
// from O(T·K) to O(T); and the whole α grid of a block is scored by one
// metrics.AlphaSweep linear accumulator in O(log |alphas|) amortised
// per prediction instead of |alphas| accumulator updates.
//
// The paths agree to floating-point association tolerance (the fast
// path hoists 1/reference out of the α loop, reuses cached quotients
// and reassociates the ΦK and α-sweep sums, all ulp-level differences);
// the integration tests pin the agreement at 1e-9 on MAPE.
package optimize

import (
	"fmt"
	"math"
	"sync"

	"solarpred/internal/core"
	"solarpred/internal/metrics"
	"solarpred/internal/timeseries"
)

// RefKind selects the error definition. The paper's slot n spans the
// interval between sample instants n and n+1: at the start of slot n the
// node samples e(n), predicts ê(n+1) — the power at the slot's end — and
// budgets the slot's incoming energy as ê(n+1)·T.
type RefKind int

const (
	// RefSlotMean scores against ē(n), the mean power over the slot just
	// entered (paper Eq. 7 → MAPE; the paper's recommended definition,
	// because ē(n)·T is the energy the slot actually delivers).
	RefSlotMean RefKind = iota
	// RefSlotStart scores against the next boundary sample e(n+1)
	// (paper Eq. 6 → MAPE′, the definition used by earlier works [2,5]).
	RefSlotStart
)

// String names the reference kind.
func (r RefKind) String() string {
	switch r {
	case RefSlotMean:
		return "MAPE"
	case RefSlotStart:
		return "MAPE'"
	default:
		return fmt.Sprintf("RefKind(%d)", int(r))
	}
}

// Eval holds the precomputed structures for fast repeated evaluation of
// one slotted trace.
type Eval struct {
	view *timeseries.SlotView
	// prefix[(d)*N + j] for d in [0, days] is the sum of Start[d'*N+j]
	// over d' < d: a per-slot prefix over days, so a D-day window sum is
	// two lookups. It aliases view.StartPrefix when the view carries it
	// (the normal case), or that of a private copy built by BuildPrefix.
	prefix []float64
	// peakMean and peakStart are the trace peaks used for the ROI
	// threshold under each reference kind.
	peakMean  float64
	peakStart float64
	// warmupDays is the number of leading days excluded from scoring.
	warmupDays int
	// roiFraction is the region-of-interest threshold as a fraction of
	// the reference peak.
	roiFraction float64
	// etaMax is the ΦK ratio clamp (default core.EtaMax); the ablation
	// benches raise it to +Inf to measure what the clamp is worth.
	etaMax float64
	// roi caches, per reference kind, the scored source indices that pass
	// the region-of-interest filter together with their reference values
	// and reciprocals. Night and twilight slots — typically more than half
	// of a year-long trace — are excluded once here instead of being
	// re-filtered on every prediction of every sweep.
	roi [2]roiIndex
	// scratch pools per-worker sweep state (η caches, θ tables,
	// accumulators) so repeated sweeps allocate nothing in steady state.
	scratch sync.Pool
}

// roiIndex is the precomputed region-of-interest filter for one
// reference kind.
type roiIndex struct {
	// ts are the flat source indices t (ascending) within the scored
	// range whose reference value passes the ROI threshold.
	ts []int32
	// ref[i] is the reference value for ts[i]; invRef[i] its reciprocal.
	ref    []float64
	invRef []float64
	// scored is the total number of scored sources (in and out of ROI).
	scored int
}

// sweepScratch is the per-worker mutable state of the vectorized
// evaluation engine. One scratch serves one (D, ×K, ×α) block at a time;
// all buffers are reused across blocks and sweeps.
type sweepScratch struct {
	// etaSame[t] is the clamped brightness ratio η for source t computed
	// against the μD window of t's own day; etaPrev[t] is the ratio
	// against the window of the following day (the value a ΦK window
	// reaching back across midnight needs). Both are valid for the
	// history depth D they were last filled for.
	etaSame []float64
	etaPrev []float64
	// thetas[i] is θ(i+1) = (i+1)/K for the current block's K.
	thetas []float64
	// conds is DynamicEval's per-K conditioned-term buffer.
	conds []float64
	// sweeps are the per-K linear α-sweep accumulators of a fused block,
	// reconfigured (and reused) per sweepBlockMulti call.
	sweeps []*metrics.AlphaSweep
	// oneK backs the single-K slice SweepAlpha hands to sweepBlockMulti.
	oneK [1]int
	// rollP, rollW and rollInv are the multi-K rolling ΦK window state
	// used by the dynamic and adaptive evaluators: one plain sum P = Ση,
	// one weighted sum W = Σ i·η and one cached 1/(K·Σθ) per distinct K.
	rollP   []float64
	rollW   []float64
	rollInv []float64
}

// Option customises evaluation.
type Option func(*Eval)

// WithWarmupDays overrides the default 20-day warm-up (paper: evaluate
// days 21–365).
func WithWarmupDays(days int) Option {
	return func(e *Eval) { e.warmupDays = days }
}

// WithROIFraction overrides the default 10 %-of-peak region-of-interest
// threshold.
func WithROIFraction(f float64) Option {
	return func(e *Eval) { e.roiFraction = f }
}

// WithEtaMax overrides the η ratio clamp of the vectorized ΦK (default
// core.EtaMax). Pass math.Inf(1) to disable clamping — the ablation that
// shows why dawn-ratio clamping is load-bearing. It affects only this
// evaluator's fast path, not the online predictor.
func WithEtaMax(max float64) Option {
	return func(e *Eval) { e.etaMax = max }
}

// NewEval prepares an evaluator for the slot view. The evaluator
// precomputes peaks, the region-of-interest index and (via the view's
// prefix column) windowed-mean state at construction; the view must not
// be mutated afterwards — rebuild the evaluator after changing a view's
// columns, or the precomputed state would describe the old data.
func NewEval(view *timeseries.SlotView, opts ...Option) (*Eval, error) {
	if view == nil || view.DaysCount == 0 {
		return nil, fmt.Errorf("optimize: empty slot view")
	}
	e := &Eval{
		view:        view,
		peakMean:    view.PeakMean(),
		peakStart:   view.PeakStart(),
		warmupDays:  metrics.DefaultWarmupDays,
		roiFraction: metrics.DefaultROIFraction,
		etaMax:      core.EtaMax,
	}
	for _, o := range opts {
		o(e)
	}
	if e.warmupDays < 0 || e.warmupDays >= view.DaysCount {
		return nil, fmt.Errorf("optimize: warm-up %d days out of range for %d-day trace", e.warmupDays, view.DaysCount)
	}
	if e.roiFraction < 0 || e.roiFraction >= 1 {
		return nil, fmt.Errorf("optimize: ROI fraction %.2f out of [0,1)", e.roiFraction)
	}
	if e.etaMax <= 0 || math.IsNaN(e.etaMax) {
		return nil, fmt.Errorf("optimize: eta clamp %v must be positive", e.etaMax)
	}
	e.prefix = view.StartPrefix
	if !view.HasPrefix() {
		// Hand-assembled view without a prefix column: build it on a copy
		// rather than mutating a possibly shared view.
		cp := *view
		cp.BuildPrefix()
		e.prefix = cp.StartPrefix
	}
	for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
		e.roi[ref] = e.buildROI(ref)
	}
	e.scratch.New = func() any { return e.newScratch() }
	// Warm the pool so a caller's first sweep doesn't pay the η-cache
	// allocation inside its timed region.
	e.scratch.Put(e.newScratch())
	return e, nil
}

// buildROI resolves the region-of-interest filter for one reference kind
// once: every later sweep iterates only the surviving indices.
func (e *Eval) buildROI(ref RefKind) roiIndex {
	first, last := e.sourceRange()
	thr := e.Threshold(ref)
	idx := roiIndex{scored: last - first + 1}
	for t := first; t <= last; t++ {
		rv := e.reference(ref, t)
		if rv < thr || rv <= 0 {
			continue
		}
		idx.ts = append(idx.ts, int32(t))
		idx.ref = append(idx.ref, rv)
		idx.invRef = append(idx.invRef, 1/rv)
	}
	return idx
}

// newScratch allocates a sweep scratch sized for the view.
func (e *Eval) newScratch() *sweepScratch {
	total := e.view.TotalSlots()
	return &sweepScratch{
		etaSame: make([]float64, total),
		etaPrev: make([]float64, total),
		thetas:  make([]float64, e.view.N),
	}
}

// getScratch checks a scratch out of the pool; putScratch returns it.
func (e *Eval) getScratch() *sweepScratch   { return e.scratch.Get().(*sweepScratch) }
func (e *Eval) putScratch(sc *sweepScratch) { e.scratch.Put(sc) }

// View returns the underlying slot view.
func (e *Eval) View() *timeseries.SlotView { return e.view }

// WarmupDays returns the scoring warm-up.
func (e *Eval) WarmupDays() int { return e.warmupDays }

// Threshold returns the absolute ROI threshold for a reference kind.
func (e *Eval) Threshold(ref RefKind) float64 {
	switch ref {
	case RefSlotStart:
		return metrics.PeakThreshold(e.peakStart, e.roiFraction)
	default:
		return metrics.PeakThreshold(e.peakMean, e.roiFraction)
	}
}

// reference returns the scoring reference for the prediction made at
// source boundary t (which forecasts the power at boundary t+1): the
// mean of the slot [t, t+1) for Eq. 7, or the boundary sample at t+1 for
// Eq. 6.
func (e *Eval) reference(ref RefKind, t int) float64 {
	if ref == RefSlotStart {
		return e.view.Start[t+1]
	}
	return e.view.Mean[t]
}

// mu returns μD(j) as seen from source day d: the mean of slot j's
// slot-start samples over days [d−D, d). It assumes d ≥ D (guaranteed for
// scored predictions because warm-up ≥ D is enforced by callers). The
// caller hoists invD = 1/D so the hot loops multiply instead of divide;
// the two round identically for power-of-two D and within one ulp
// otherwise, inside every cross-path tolerance (see the README's kernel
// notes).
func (e *Eval) mu(d, j, D int, invD float64) float64 {
	n := e.view.N
	return (e.prefix[d*n+j] - e.prefix[(d-D)*n+j]) * invD
}

// eta returns the clamped brightness ratio η for source index src scored
// against the μD window of day d (which is src's own day for same-day
// window slots, or the following day for window slots reached across
// midnight), matching core.Predictor.Phi's neutral-ratio fallback.
func (e *Eval) eta(src, d, D int, invD float64) float64 {
	mu := e.mu(d, src%e.view.N, D, invD)
	if mu <= core.MuEpsilon {
		return 1
	}
	eta := e.view.Start[src] / mu
	if eta > e.etaMax {
		eta = e.etaMax
	}
	return eta
}

// fillEtas populates the scratch η caches for history depth D. etaSame is
// filled for every scored source; etaPrev only for the last kMax−1 slots
// of each day, the only sources a ΦK window can reach from the following
// day. One fill serves every K ≤ kMax and every α evaluated at this D —
// the sharing that makes grid search cheap.
func (e *Eval) fillEtas(sc *sweepScratch, D, kMax int) {
	n := e.view.N
	invD := 1 / float64(D)
	first, last := e.sourceRange()
	firstDay, lastDay := first/n, last/n
	for d := firstDay; d <= lastDay; d++ {
		hi := (d+1)*n - 1
		if hi > last {
			hi = last
		}
		for t := d * n; t <= hi; t++ {
			sc.etaSame[t] = e.eta(t, d, D, invD)
		}
	}
	if kMax < 2 {
		return
	}
	// Sources on day d−1 seen from day d's windows.
	for d := firstDay; d <= lastDay; d++ {
		row := (d - 1) * n
		for j := n - kMax + 1; j < n; j++ {
			sc.etaPrev[row+j] = e.eta(row+j, d, D, invD)
		}
	}
}

// phiCached computes ΦK for source t from the scratch η caches: K
// multiply-adds and one division, no history walks. thetas and den must
// be the precomputed θ table and Σθ for this K, and the caches must have
// been filled for the same D. It reproduces the online predictor's
// accumulation order exactly.
func (e *Eval) phiCached(sc *sweepScratch, t, K int, thetas []float64, den float64) float64 {
	dayStart := (t / e.view.N) * e.view.N
	var num float64
	base := t - K
	for i := 0; i < K; i++ {
		src := base + 1 + i
		eta := sc.etaSame[src]
		if src < dayStart {
			eta = sc.etaPrev[src]
		}
		num += thetas[i] * eta
	}
	return num / den
}

// buildThetas fills dst[:k] with the Eq. 5 weights θ(i) = i/k and
// returns the slice together with Σθ, accumulated in the online
// predictor's order. Every ΦK computation site shares this helper so the
// weighting cannot drift between the grid, dynamic and adaptive paths.
func buildThetas(dst []float64, k int) (thetas []float64, den float64) {
	thetas = dst[:k]
	for i := 1; i <= k; i++ {
		th := float64(i) / float64(k)
		thetas[i-1] = th
		den += th
	}
	return thetas, den
}

// etaAt reads the cached η for source src as seen from the day starting
// at source index dayStart: sources before the boundary were recorded
// from the previous day, whose μD window (hence η) differs.
func (sc *sweepScratch) etaAt(src, dayStart int) float64 {
	if src < dayStart {
		return sc.etaPrev[src]
	}
	return sc.etaSame[src]
}

// windowInitAt computes the rolling ΦK sums P = Ση and W = Σ i·η
// directly for the k-window ending at source t, reading the η caches as
// seen from the day starting at dayStart. This O(k) re-initialisation
// happens at every day boundary — the η cache switches μD windows there
// (a source's ratio changes when viewed from the next day) — and at the
// start of every scored daylight run, which both skips the pointless
// slides across night gaps and bounds the O(1) slide's floating-point
// drift to one contiguous run.
func (sc *sweepScratch) windowInitAt(t, dayStart, k int) (p, w float64) {
	base := t - k
	for i := 1; i <= k; i++ {
		eta := sc.etaAt(base+i, dayStart)
		p += eta
		w += float64(i) * eta
	}
	return p, w
}

// sweepBlock evaluates one (D, K) block for every α in alphas via the
// fused multi-K scan with a single window size.
func (e *Eval) sweepBlock(sc *sweepScratch, D, K int, alphas []float64, ref RefKind) ([]metrics.Report, error) {
	sc.oneK[0] = K
	reps, err := e.sweepBlockMulti(sc, D, sc.oneK[:], alphas, ref)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// setupSweeps sizes the scratch's per-K α-sweep accumulator bank and
// reconfigures (or lazily creates) each accumulator for the grid.
func (sc *sweepScratch) setupSweeps(nk int, alphas []float64) error {
	for len(sc.sweeps) < nk {
		sc.sweeps = append(sc.sweeps, nil)
	}
	for i := 0; i < nk; i++ {
		if sc.sweeps[i] == nil {
			sw, err := metrics.NewAlphaSweep(alphas)
			if err != nil {
				return err
			}
			sc.sweeps[i] = sw
		} else if err := sc.sweeps[i].Reconfigure(alphas); err != nil {
			return err
		}
	}
	return nil
}

// rollInitAt re-initialises every rolling window directly at source t.
func (sc *sweepScratch) rollInitAt(t, dayStart int, ks []int) {
	for i, k := range ks {
		sc.rollP[i], sc.rollW[i] = sc.windowInitAt(t, dayStart, k)
	}
}

// sweepBlockMulti evaluates a (D, ×K, ×α) sub-grid in one rolling pass,
// reusing the scratch η caches (which must have been filled for D and
// kMax ≥ max K). The pass visits only the region-of-interest sources:
// within a contiguous scored run each ΦK slides in O(1) — W ← W − P +
// K·η_new, P ← P − η_old + η_new — and at a run start or day boundary
// the windows re-initialise directly in O(K), so night gaps cost
// nothing at all. Every per-prediction input shared across window sizes
// (μD of the target, the persistence term, the reference and its
// reciprocal) is computed once and fed to all |Ks| α-sweep
// accumulators, and the whole α grid of each K is scored by one linear
// accumulator; a sub-grid costs O(|ROI|·(|Ks| + log |alphas|)) instead
// of O(|Ks|·|ROI|·(K + |alphas|)).
//
// The returned reports are indexed [ki][ai]. Per-K results are
// bit-identical whatever the batching: each window's slides, inits and
// accumulator stream depend only on its own K, which keeps the fused
// grid search exactly equal to per-(D, K) SweepAlpha calls.
func (e *Eval) sweepBlockMulti(sc *sweepScratch, D int, ks []int, alphas []float64, ref RefKind) ([][]metrics.Report, error) {
	sc.rollSetup(ks)
	if err := sc.setupSweeps(len(ks), alphas); err != nil {
		return nil, err
	}
	roi := &e.roi[ref]
	ts := roi.ts
	n := e.view.N
	rollW, rollInv := sc.rollW, sc.rollInv
	sweeps := sc.sweeps[:len(ks)]
	start := e.view.Start
	invD := 1 / float64(D)
	dayStart := 0
	prev := -2 // never adjacent to the first scored source
	for ri := range ts {
		t := int(ts[ri])
		if t == prev+1 && t != dayStart+n {
			sc.rollSlide(t, dayStart, ks)
		} else {
			dayStart = (t / n) * n
			sc.rollInitAt(t, dayStart, ks)
		}
		prev = t
		pers := start[t]
		mu := e.mu(t/n, (t+1)%n, D, invD)
		refV, invRef := roi.ref[ri], roi.invRef[ri]
		for i := range ks {
			cond := mu * (rollW[i] * rollInv[i])
			sweeps[i].AddInROI(pers, cond, refV, invRef)
		}
	}
	outside := roi.scored - len(ts)
	out := make([][]metrics.Report, len(ks))
	for i := range ks {
		sweeps[i].AddOutsideROI(outside)
		reps := make([]metrics.Report, len(alphas))
		copy(reps, sweeps[i].Reports())
		out[i] = reps
	}
	return out, nil
}

// rollSetup sizes the scratch's multi-K rolling window state for the
// given distinct window sizes and caches 1/(K·Σθ) per K.
func (sc *sweepScratch) rollSetup(ks []int) {
	if cap(sc.rollP) < len(ks) {
		sc.rollP = make([]float64, len(ks))
		sc.rollW = make([]float64, len(ks))
		sc.rollInv = make([]float64, len(ks))
	}
	sc.rollP = sc.rollP[:len(ks)]
	sc.rollW = sc.rollW[:len(ks)]
	sc.rollInv = sc.rollInv[:len(ks)]
	for i, k := range ks {
		_, den := buildThetas(sc.thetas, k)
		sc.rollInv[i] = 1 / (float64(k) * den)
	}
}

// rollSlide advances every rolling window from source t−1 to the
// same-day source t.
func (sc *sweepScratch) rollSlide(t, dayStart int, ks []int) {
	etaNew := sc.etaAt(t, dayStart)
	for i, k := range ks {
		sc.rollW[i] += float64(k)*etaNew - sc.rollP[i]
		sc.rollP[i] += etaNew - sc.etaAt(t-k, dayStart)
	}
}

// rollPhi evaluates the i-th rolling window: Φ = W·(1/(K·Σθ)).
func (sc *sweepScratch) rollPhi(i int) float64 {
	return sc.rollW[i] * sc.rollInv[i]
}

// sourceRange returns the first and last flat source indices t whose
// target t+1 is scored. The first source is slot 0 of the first scored
// day: at that instant the previous day has rolled into history, so a
// D ≤ warm-up window is always full. (The one candidate this skips — the
// midnight slot at the exact warm-up boundary — is a night sample outside
// every region of interest.)
func (e *Eval) sourceRange() (first, last int) {
	first = e.warmupDays * e.view.N
	last = e.view.TotalSlots() - 2 // target must exist
	return first, last
}

// SweepAlpha evaluates the configuration (D, K) for every α in alphas in
// one pass, scoring each prediction's target against the chosen
// reference. It returns one metrics.Report per α, index-aligned with
// alphas. The ΦK of each prediction is computed once from the per-D η
// cache and shared across the whole α sweep.
//
// The warm-up must cover D days so the history window never underflows.
func (e *Eval) SweepAlpha(D, K int, alphas []float64, ref RefKind) ([]metrics.Report, error) {
	if err := e.checkSweep(D, K, alphas); err != nil {
		return nil, err
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, D, K)
	return e.sweepBlock(sc, D, K, alphas, ref)
}

// checkSweep validates a (D, K, alphas) sweep request.
func (e *Eval) checkSweep(D, K int, alphas []float64) error {
	if err := e.checkConfig(D, K); err != nil {
		return err
	}
	if len(alphas) == 0 {
		return fmt.Errorf("optimize: empty alpha sweep")
	}
	for _, a := range alphas {
		if a < 0 || a > 1 || math.IsNaN(a) {
			return fmt.Errorf("optimize: alpha %.3f out of [0,1]", a)
		}
	}
	return nil
}

// checkConfig validates a (D, K) configuration against the view and
// warm-up.
func (e *Eval) checkConfig(D, K int) error {
	if D < 1 {
		return fmt.Errorf("optimize: D %d < 1", D)
	}
	if K < 1 || K > e.view.N {
		return fmt.Errorf("optimize: K %d out of range [1,%d]", K, e.view.N)
	}
	if D > e.warmupDays {
		return fmt.Errorf("optimize: D %d exceeds warm-up of %d days (history would be partial)", D, e.warmupDays)
	}
	return nil
}

// EvaluateOnline drives a fresh core.Predictor over the whole trace slot
// by slot and scores it like SweepAlpha does. It is the reference
// implementation the vectorized path is tested against, and the function
// a library user would mirror on a real deployment.
func (e *Eval) EvaluateOnline(params core.Params, ref RefKind) (metrics.Report, error) {
	if err := e.checkConfig(params.D, params.K); err != nil {
		return metrics.Report{}, err
	}
	pred, err := core.New(e.view.N, params)
	if err != nil {
		return metrics.Report{}, err
	}
	acc, err := metrics.NewAccumulator(e.Threshold(ref))
	if err != nil {
		return metrics.Report{}, err
	}
	n := e.view.N
	first, last := e.sourceRange()
	for t := 0; t <= last; t++ {
		if err := pred.Observe(t%n, e.view.Start[t]); err != nil {
			return metrics.Report{}, err
		}
		if t < first {
			continue
		}
		p, err := pred.Predict()
		if err != nil {
			return metrics.Report{}, err
		}
		acc.Add(p, e.reference(ref, t))
	}
	return acc.Snapshot(), nil
}

// Pairs runs the online predictor and returns the raw prediction pairs
// for the scored region; useful for custom analyses and examples.
func (e *Eval) Pairs(params core.Params) ([]metrics.Pair, error) {
	if err := e.checkConfig(params.D, params.K); err != nil {
		return nil, err
	}
	pred, err := core.New(e.view.N, params)
	if err != nil {
		return nil, err
	}
	n := e.view.N
	first, last := e.sourceRange()
	pairs := make([]metrics.Pair, 0, last-first+1)
	for t := 0; t <= last; t++ {
		if err := pred.Observe(t%n, e.view.Start[t]); err != nil {
			return nil, err
		}
		if t < first {
			continue
		}
		p, err := pred.Predict()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, metrics.Pair{
			Predicted: p,
			SlotStart: e.view.Start[t+1],
			SlotMean:  e.view.Mean[t],
		})
	}
	return pairs, nil
}

// EvaluateBaseline scores any SlotPredictor (EWMA, persistence, …) over
// the trace with the same protocol as EvaluateOnline.
func (e *Eval) EvaluateBaseline(p core.SlotPredictor, ref RefKind) (metrics.Report, error) {
	if p.N() != e.view.N {
		return metrics.Report{}, fmt.Errorf("optimize: predictor has %d slots/day, view has %d", p.N(), e.view.N)
	}
	acc, err := metrics.NewAccumulator(e.Threshold(ref))
	if err != nil {
		return metrics.Report{}, err
	}
	n := e.view.N
	first, last := e.sourceRange()
	for t := 0; t <= last; t++ {
		if err := p.Observe(t%n, e.view.Start[t]); err != nil {
			return metrics.Report{}, err
		}
		if t < first {
			continue
		}
		pr, err := p.Predict()
		if err != nil {
			return metrics.Report{}, err
		}
		acc.Add(pr, e.reference(ref, t))
	}
	return acc.Snapshot(), nil
}
