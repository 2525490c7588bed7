package optimize

import (
	"fmt"
	"math"

	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/metrics"
)

// AdaptiveResult scores one realizable selection policy on a trace.
type AdaptiveResult struct {
	Policy string
	Report metrics.Report
	// SwitchCount is how many times the policy changed its candidate —
	// a proxy for actuation churn on a real node.
	SwitchCount int
	// FinalCandidate is the arm in use at the end of the run.
	FinalCandidate adaptive.Candidate
}

// AdaptiveEval runs realizable dynamic-parameter policies over the trace
// at history depth d: at every scored slot each policy picks a candidate
// (α, K) BEFORE the truth arrives, the prediction is scored like every
// other evaluator path, and afterwards the policy observes the loss all
// candidates would have suffered (full-information feedback — Eq. 1 is
// cheap to evaluate for the whole grid once its terms are known).
//
// This is the realizable counterpart of DynamicEval's clairvoyant
// oracle: same grid, same scoring, but the choice uses only past
// information, so it could run on the node as-is.
//
// The selectors share one pass: the per-slot conditioned averages and
// the candidate loss vector are computed once and handed to every
// selector in turn, which is why Update must neither modify nor retain
// its losses (see adaptive.Selector). Each selector's arithmetic is that
// of a pass of its own, so its result does not depend on which other
// selectors ride along. sels must be distinct instances; results are
// index-aligned with them.
func (e *Eval) AdaptiveEval(d int, cands []adaptive.Candidate, ref RefKind, sels ...adaptive.Selector) ([]AdaptiveResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("optimize: no candidates")
	}
	if len(sels) == 0 {
		return nil, fmt.Errorf("optimize: no selectors")
	}
	maxK := 1
	for _, c := range cands {
		if c.Alpha < 0 || c.Alpha > 1 || c.K < 1 {
			return nil, fmt.Errorf("optimize: invalid candidate %+v", c)
		}
		if c.K > maxK {
			maxK = c.K
		}
	}
	if err := e.checkConfig(d, maxK); err != nil {
		return nil, err
	}
	accs := make([]*metrics.Accumulator, len(sels))
	for i, sel := range sels {
		acc, err := metrics.NewAccumulator(e.Threshold(ref))
		if err != nil {
			return nil, err
		}
		accs[i] = acc
		sel.Reset()
	}

	// Distinct K values so Φ is computed once per K, not per candidate;
	// candK[i] is candidate i's index into ks, resolved once per call so
	// the per-slot loops do no map lookups.
	kIndex := map[int]int{}
	var ks []int
	candK := make([]int, len(cands))
	for i, c := range cands {
		if _, ok := kIndex[c.K]; !ok {
			kIndex[c.K] = len(ks)
			ks = append(ks, c.K)
		}
		candK[i] = kIndex[c.K]
	}
	conds := make([]float64, len(ks))
	losses := make([]float64, len(cands))
	lossFloor := e.Threshold(ref) / 2 // keeps night losses O(1)

	// Unlike the grid sweeps, a policy's state advances on every slot, so
	// the loop cannot skip out-of-ROI sources — the rolling ΦK windows
	// slide in O(1) per slot per distinct K over the shared per-D η cache.
	// The windows are re-initialised directly at day boundaries and at the
	// start of every in-ROI run — the exact re-init points of
	// sweepBlockMulti — so the scored window states are bit-identical to
	// the grid sweeps' (a single-candidate policy reproduces SweepAlpha to
	// association tolerance; the aggregation orders differ — see the
	// README's kernel notes); between runs the slides keep Φ current for
	// the full-information feedback.
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, d, maxK)
	sc.rollSetup(ks)

	n := e.view.N
	invD := 1 / float64(d)
	thr := e.Threshold(ref)
	first, last := e.sourceRange()
	res := make([]AdaptiveResult, len(sels))
	prevChoice := make([]int, len(sels))
	for i, sel := range sels {
		res[i].Policy = sel.Name()
		prevChoice[i] = -1
	}
	prevInROI := false
	dayStart := first // first is day-aligned (warmupDays·N)
	for t := first; t <= last; t++ {
		refVal := e.reference(ref, t)
		inROI := refVal >= thr && refVal > 0
		if t%n == 0 || (inROI && !prevInROI) {
			dayStart = (t / n) * n
			sc.rollInitAt(t, dayStart, ks)
		} else {
			sc.rollSlide(t, dayStart, ks)
		}
		prevInROI = inROI
		day := t / n
		pers := e.view.Start[t]
		mu := e.mu(day, (t+1)%n, d, invD)
		for i := range ks {
			conds[i] = mu * sc.rollPhi(i)
		}
		// Full-information feedback for every candidate.
		for i, c := range cands {
			p := core.Combine(c.Alpha, pers, conds[candK[i]])
			losses[i] = adaptive.LossScale(math.Abs(refVal-p), refVal, lossFloor)
		}
		for s, sel := range sels {
			choice := sel.Choose()
			if choice < 0 || choice >= len(cands) {
				return nil, fmt.Errorf("optimize: policy %s chose out-of-range arm %d", sel.Name(), choice)
			}
			if choice != prevChoice[s] {
				if prevChoice[s] >= 0 {
					res[s].SwitchCount++
				}
				prevChoice[s] = choice
			}
			accs[s].Add(core.Combine(cands[choice].Alpha, pers, conds[candK[choice]]), refVal)
			sel.Update(losses)
		}
	}
	for s := range sels {
		res[s].Report = accs[s].Snapshot()
		if prevChoice[s] >= 0 {
			res[s].FinalCandidate = cands[prevChoice[s]]
		}
	}
	return res, nil
}
