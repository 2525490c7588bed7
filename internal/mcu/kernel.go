package mcu

import (
	"fmt"

	"solarpred/internal/core"
	fp "solarpred/internal/fixedpoint"
)

// Kernel is the embedded port of the WCMA predictor: Q16.16 arithmetic,
// incremental μD maintenance (running per-slot sums instead of D-term
// averaging), and cycle accounting for every operation executed.
//
// It mirrors core.Predictor's Observe/Predict protocol so the two can be
// cross-validated numerically; the accuracy gap between them is the
// float-versus-fixed ablation. One behavioural difference is inherent:
// when a dawn-slot μD falls below Q16.16 resolution the kernel treats
// the brightness ratio as neutral, where the float path still divides
// and clamps to EtaMax — the kernel's choice discards a meaningless
// quotient, so the divergence (rare, dawn-only) favours the port.
type Kernel struct {
	params core.Params
	n      int

	hist     [][]fp.Q // D×N ring of past days
	sums     []fp.Q   // per-slot running sums over the ring rows
	muTable  []fp.Q   // per-slot μD, refreshed at each day roll
	histNext int
	histDays int

	cur     []fp.Q
	prev    []fp.Q
	prevOK  bool
	curSlot int

	// ops counts the arithmetic of prediction calls only (Observe's
	// bookkeeping is charged to ObserveOps).
	ops        Counter
	observeOps Counter

	// etaMax is EtaMax in Q16.16, precomputed.
	etaMax fp.Q
	// thetas[i] is θ(i+1) = (i+1)/K in Q16.16, computed once at
	// construction — on a real port this table lives in flash, so each
	// window iteration pays one load instead of a fixed-point division.
	thetas []fp.Q

	// Rolling-ΦK state, active only for kernels built by
	// NewRollingKernel (see rolling.go). The direct kernel keeps the
	// paper's O(K) prediction loop so the measured cost shape — per-
	// prediction cycles growing with K, Table IV — stays reproducible.
	rolling bool
	etaRing []fp.Q // last K clamped ratios, a ring
	ringPos int
	phiP    fp.Q // P = Ση over the ring
	phiW    fp.Q // W = Σ i·η over the ring (i = window position 1..K)
	kden    fp.Q // K·Σθ, the rolling Φ divisor, precomputed
	kQ      fp.Q // K in Q16.16, precomputed
}

// NewKernel creates the embedded kernel for n slots per day.
func NewKernel(n int, params core.Params) (*Kernel, error) {
	if n < 2 {
		return nil, fmt.Errorf("mcu: need at least 2 slots per day, got %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.K > n {
		return nil, fmt.Errorf("mcu: K %d exceeds slots per day %d", params.K, n)
	}
	k := &Kernel{
		params:  params,
		n:       n,
		hist:    make([][]fp.Q, params.D),
		sums:    make([]fp.Q, n),
		muTable: make([]fp.Q, n),
		cur:     make([]fp.Q, n),
		prev:    make([]fp.Q, n),
		etaMax:  fp.FromFloat(core.EtaMax),
	}
	for i := range k.hist {
		k.hist[i] = make([]fp.Q, n)
	}
	k.thetas = make([]fp.Q, params.K)
	for i := 1; i <= params.K; i++ {
		k.thetas[i-1] = fp.Div(fp.FromInt(i), fp.FromInt(params.K))
	}
	return k, nil
}

// N returns the slots per day.
func (k *Kernel) N() int { return k.n }

// Params returns the configured parameters.
func (k *Kernel) Params() core.Params { return k.params }

// PredictOps returns the operation counts of the last Predict call.
func (k *Kernel) PredictOps() Counter { return k.ops }

// ObserveOps returns the operation counts of the last Observe call.
func (k *Kernel) ObserveOps() Counter { return k.observeOps }

// Observe records the measured slot power (in the trace's power unit;
// values must fit Q16.16, i.e. < 32768) for the current slot.
func (k *Kernel) Observe(slot int, power float64) error {
	if slot < 0 || slot >= k.n {
		return fmt.Errorf("mcu: slot %d out of range [0,%d)", slot, k.n)
	}
	if power < 0 || power >= 32768 {
		return fmt.Errorf("mcu: power %v out of Q16.16 range", power)
	}
	if slot != k.curSlot%k.n {
		return fmt.Errorf("mcu: slot %d observed out of order (expected %d)", slot, k.curSlot%k.n)
	}
	k.observeOps.Reset()
	if slot == 0 && k.curSlot == k.n {
		k.rollDay()
	}
	k.cur[slot] = fp.FromFloat(power)
	k.observeOps.LoadStores++
	k.curSlot = slot + 1
	if k.rolling {
		k.slideRolling(slot)
	}
	return nil
}

// rollDay retires the completed day into the ring and refreshes the μD
// table: the running per-slot sums are maintained incrementally (one
// subtract for the evicted row, one add for the new one), and the N
// divisions to re-derive μD happen once per day here instead of inside
// every prediction — the standard embedded optimisation that makes the
// per-prediction cost independent of D.
func (k *Kernel) rollDay() {
	copy(k.prev, k.cur)
	k.prevOK = true
	evict := k.hist[k.histNext]
	full := k.histDays == k.params.D
	for j := 0; j < k.n; j++ {
		if full {
			k.sums[j] = fp.Sub(k.sums[j], evict[j])
			k.observeOps.Subs++
		}
		k.sums[j] = fp.Add(k.sums[j], k.cur[j])
		k.observeOps.Adds++
		k.observeOps.LoadStores += 2
	}
	copy(k.hist[k.histNext], k.cur)
	k.histNext = (k.histNext + 1) % k.params.D
	if !full {
		k.histDays++
	}
	days := fp.FromInt(k.histDays)
	for j := 0; j < k.n; j++ {
		k.muTable[j] = fp.Div(k.sums[j], days)
		k.observeOps.Divs++
		k.observeOps.LoadStores += 2
	}
	k.curSlot = 0
	if k.rolling {
		k.resyncRolling()
	}
}

// mu returns μD(j) in Q16.16 from the maintained table (one load).
func (k *Kernel) mu(j int) fp.Q {
	k.ops.LoadStores++
	return k.muTable[j]
}

// measured returns the current-day (or wrapped previous-day) measurement
// for logical slot index j (j may be negative).
func (k *Kernel) measured(j int) (fp.Q, bool) {
	k.ops.Cmps++
	if j >= 0 {
		if j >= k.curSlot {
			return 0, false
		}
		k.ops.LoadStores++
		return k.cur[j], true
	}
	if !k.prevOK {
		return 0, false
	}
	idx := k.n + j
	if idx < 0 {
		return 0, false
	}
	k.ops.LoadStores++
	return k.prev[idx], true
}

// muEpsilonQ is core.MuEpsilon rounded up to the smallest representable
// positive Q16.16 value (the float epsilon is below Q16.16 resolution).
const muEpsilonQ = fp.Eps

// Predict computes the next-slot forecast, charging every arithmetic
// operation to the kernel's counter. It returns the prediction as a
// float for scoring convenience.
func (k *Kernel) Predict() (float64, error) {
	if k.curSlot == 0 {
		return 0, fmt.Errorf("mcu: no observation yet for the current day")
	}
	k.ops.Reset()
	k.ops.Calls++

	n := k.curSlot - 1
	K := k.params.K

	var phi fp.Q
	if k.rolling {
		// The window sums were maintained by Observe; Φ = W/(K·Σθ) is
		// one state load and one division, independent of K.
		phi = fp.Div(k.phiW, k.kden)
		k.ops.LoadStores++
		k.ops.Divs++
	} else {
		// ΦK: weighted average of clamped ratios. θ(i) = i/K comes from
		// the table precomputed at construction (flash on a real port;
		// one load), but the multiply by η is live.
		var num, den fp.Q
		for i := 1; i <= K; i++ {
			theta := k.thetas[i-1]
			k.ops.LoadStores++
			slot := n - K + i
			eta := fp.One
			meas, ok := k.measured(slot)
			var mu fp.Q
			if slot >= 0 {
				mu = k.mu(slot)
			} else {
				mu = k.mu(k.n + slot)
			}
			k.ops.Cmps++
			if ok && mu > muEpsilonQ {
				eta = fp.Div(meas, mu)
				k.ops.Divs++
				k.ops.Cmps++
				if eta > k.etaMax {
					eta = k.etaMax
				}
			}
			num = fp.Add(num, fp.Mul(theta, eta))
			den = fp.Add(den, theta)
			k.ops.Muls++
			k.ops.Adds += 2
		}
		phi = fp.Div(num, den)
		k.ops.Divs++
	}

	next := (n + 1) % k.n
	muNext := k.mu(next)
	cond := fp.Mul(muNext, phi)
	k.ops.Muls++

	alpha := fp.FromFloat(k.params.Alpha)
	var pred fp.Q
	// α = 0 and α = 1 are special-cased exactly as an embedded port
	// would: each skips one multiply chain (the paper's Table IV shows
	// the same effect between its α=0.7 and α=0.0 rows).
	switch {
	case alpha == 0:
		pred = cond
	case alpha == fp.One:
		pred = k.cur[n]
		k.ops.LoadStores++
	default:
		pers := fp.Mul(alpha, k.cur[n])
		rest := fp.Mul(fp.Sub(fp.One, alpha), cond)
		pred = fp.Add(pers, rest)
		k.ops.Muls += 2
		k.ops.Subs++
		k.ops.Adds++
		k.ops.LoadStores++
	}
	k.ops.Cmps++
	if pred < 0 {
		pred = 0
	}
	return pred.Float(), nil
}

// TypicalPredictionCounter returns the operation counts of a steady-state
// prediction for the given parameters without building a history: it
// charges the ΦK loop (K ratio divisions, clamps, weighted accumulation),
// the final Φ division, the μD lookup of the target slot, and the Eq. 1
// combination (full, or reduced at the α ∈ {0, 1} endpoints). This is
// the closed-form used for cost tables; kernel_test verifies it against
// the live kernel's accounting.
func TypicalPredictionCounter(params core.Params) Counter {
	var c Counter
	c.Calls++
	K := params.K
	// Window loop: per iteration one θ load, one measured() (cmp+load),
	// one μD table load, the μ>ε compare, one η division plus clamp
	// compare, θ·η multiply, two adds.
	c.LoadStores += K // θ
	c.Cmps += K       // measured() branch
	c.LoadStores += K // measured() value
	c.LoadStores += K // μD table
	c.Cmps += K       // μ > ε
	c.Divs += K       // η
	c.Cmps += K       // η clamp
	c.Muls += K
	c.Adds += 2 * K
	// Φ division.
	c.Divs++
	// μD(next): one table load.
	c.LoadStores++
	// μ·Φ.
	c.Muls++
	// Eq. 1 combination.
	switch params.Alpha {
	case 0:
		// conditioned term only
	case 1:
		c.LoadStores++
	default:
		c.Muls += 2
		c.Subs++
		c.Adds++
		c.LoadStores++
	}
	// Nonnegativity clamp.
	c.Cmps++
	return c
}
