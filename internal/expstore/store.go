// Package expstore memoises the expensive artefacts of the experiment
// pipeline — generated site traces, slot views, evaluators and
// grid-search results — behind one concurrency-safe store shared by every
// driver in a process.
//
// The paper's reproduction is one big shared computation wearing several
// driver costumes: Table II, Table III, Table V, Fig. 7, the guideline
// and baseline studies all grid-search the same (site, N, space,
// reference) tuples, and each re-derives the same slot views and
// evaluators on the way. The store collapses that: each tuple is computed
// exactly once per process and every driver reads the same cached object.
//
// # Keying
//
// Entries are keyed by the full provenance of the value:
//
//   - a series by (site, days);
//   - a slot view by (site, days, N) — derived through a per-series
//     resolution pyramid (timeseries.Pyramid) seeded with the store's
//     ladder, so coarser views aggregate finer cached ones instead of
//     re-slotting the raw trace;
//   - an evaluator by (site, days, N, evaluator options);
//   - a grid result by (site, days, N, evaluator options, search-space
//     fingerprint, reference kind).
//
// Floating-point key components are fingerprinted with exact shortest
// round-trip formatting, so two spaces compare equal exactly when their
// parameters are bit-identical.
//
// # Single flight
//
// Concurrent requests for the same key are deduplicated: the first caller
// computes while the rest block on the same flight and share its result.
// Callers already waiting on a flight that fails share its error, but the
// failed entry is evicted on completion, so the next request for the key
// computes afresh instead of inheriting a permanently poisoned entry.
// A failure is a property of the attempt, not of the key: under a
// long-running server a transient error (an exhausted resource, a
// cancelled dependency) must not wedge a tuple for the process lifetime.
// Parallel (site, N) workers therefore never compute the same tuple
// twice, and a tuple whose first computation fails succeeds on retry.
//
// # Invalidation and memory bounds
//
// Successful entries are never invalidated: keys carry the full
// provenance of their value and the underlying data is immutable for a
// process lifetime, so entries never go stale and are never evicted
// (failed flights are the one exception — they leave the map so retries
// can proceed). Memory is bounded by the set of distinct keys requested —
// dominated by the grid results (one cell per (α, D, K) point) and the
// slot-view/evaluator columns, a few dozen MB at full paper scale. Reset
// drops everything for callers that want a cold store and is safe to call
// at any time, including concurrently with live readers.
package expstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// TraceFunc generates (or loads) the raw series for a site at a trace
// length. It must be deterministic: the store caches its results and
// shares them across every consumer.
type TraceFunc func(site string, days int) (*timeseries.Series, error)

// EvalOptions identifies an evaluator configuration. The zero value of a
// field means the optimize package default; distinct option sets produce
// distinct cache entries.
type EvalOptions struct {
	// WarmupDays is the scoring warm-up (optimize.WithWarmupDays). It is
	// always applied, so 0 really means no warm-up.
	WarmupDays int
	// ROIFraction overrides the region-of-interest threshold when > 0.
	ROIFraction float64
	// EtaMax overrides the η ratio clamp when > 0.
	EtaMax float64
}

// apply converts the options into optimize evaluator options.
func (o EvalOptions) apply() []optimize.Option {
	opts := []optimize.Option{optimize.WithWarmupDays(o.WarmupDays)}
	if o.ROIFraction > 0 {
		opts = append(opts, optimize.WithROIFraction(o.ROIFraction))
	}
	if o.EtaMax > 0 {
		opts = append(opts, optimize.WithEtaMax(o.EtaMax))
	}
	return opts
}

// Fingerprint renders the options as an exact key component. Exported so
// store consumers that maintain their own keyed layers (the request
// batcher in internal/serve) can agree with the store about evaluator
// identity.
func (o EvalOptions) Fingerprint() string {
	return fmt.Sprintf("w%d,r%s,e%s", o.WarmupDays, fp(o.ROIFraction), fp(o.EtaMax))
}

// fp formats a float with shortest round-trip precision.
func fp(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// fpSlice joins exact float renderings.
func fpSlice(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fp(x)
	}
	return strings.Join(parts, ",")
}

// fpInts joins ints.
func fpInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// SpaceFingerprint renders a search space as an exact key component:
// order-sensitive (cell ordering is part of a SearchResult's contract).
func SpaceFingerprint(s optimize.Space) string {
	return "a=" + fpSlice(s.Alphas) + ";d=" + fpInts(s.Ds) + ";k=" + fpInts(s.Ks)
}

// Kind labels the cached artefact classes for the hit/miss counters.
type Kind int

const (
	KindSeries Kind = iota
	KindView
	KindEval
	KindGrid
	// kindPyramid counts the per-series resolution pyramids, an
	// implementation detail of view derivation that Stats does not report.
	kindPyramid
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSeries:
		return "series"
	case KindView:
		return "view"
	case KindEval:
		return "eval"
	case KindGrid:
		return "grid"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a hit/miss pair for one artefact kind. A hit is a request
// served from a completed or in-flight computation; a miss is a request
// that had to compute.
type Counter struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Sub returns the counter delta since prev.
func (c Counter) Sub(prev Counter) Counter {
	return Counter{Hits: c.Hits - prev.Hits, Misses: c.Misses - prev.Misses}
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Series Counter `json:"series"`
	View   Counter `json:"view"`
	Eval   Counter `json:"eval"`
	Grid   Counter `json:"grid"`
}

// Sub returns the per-kind delta since prev — the per-driver accounting
// the bench harness records.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Series: s.Series.Sub(prev.Series),
		View:   s.View.Sub(prev.View),
		Eval:   s.Eval.Sub(prev.Eval),
		Grid:   s.Grid.Sub(prev.Grid),
	}
}

// flight is one single-flight computation slot.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Store is the concurrency-safe memoization layer. The zero value is not
// usable; construct with New.
type Store struct {
	trace TraceFunc
	// ladder seeds each series' resolution pyramid, fixing the view
	// derivation chain so cached views are bit-stable across runs and
	// scheduling.
	ladder []int

	// mu guards the flight map and the counters together, so Reset's map
	// swap and counter zeroing are one atomic step with respect to every
	// hit/miss account.
	mu      sync.Mutex
	flights map[string]*flight
	stats   [numKinds]Counter
}

// New builds a store over a trace generator. ladder lists the sampling
// rates each series' resolution pyramid pre-builds finest-first (pass the
// experiment's N set); it may be nil, in which case every view is slotted
// directly from the raw trace.
func New(trace TraceFunc, ladder []int) *Store {
	s := &Store{
		trace:   trace,
		ladder:  append([]int(nil), ladder...),
		flights: make(map[string]*flight),
	}
	return s
}

// do runs compute under single-flight semantics for key, counting a miss
// for the computing caller and a hit for everyone else. A failed flight
// is evicted from the map before it publishes, so callers arriving after
// the failure retry the computation rather than inheriting the error.
func (s *Store) do(kind Kind, key string, compute func() (any, error)) (any, error) {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.stats[kind].Hits++
		s.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats[kind].Misses++
	s.mu.Unlock()
	if panicked := s.runFlight(key, f, compute); panicked != nil {
		panic(panicked)
	}
	return f.val, f.err
}

// runFlight executes one flight's computation, evicts it on failure and
// publishes the result. A panic inside compute is converted into the
// flight's error — waiters retry like any failed flight instead of
// hanging on a done channel that would never close — and is returned for
// the computing caller to re-raise once the store is consistent again.
func (s *Store) runFlight(key string, f *flight, compute func() (any, error)) (panicked any) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				f.val, f.err = nil, fmt.Errorf("expstore: computation panicked: %v", r)
			}
		}()
		f.val, f.err = compute()
	}()
	if f.err != nil {
		s.evict(key, f)
	}
	close(f.done)
	return panicked
}

// evict removes a failed flight, but only if the key still maps to it — a
// concurrent Reset may have swapped the map (making the delete a no-op)
// or a retry may already have installed a fresh flight under the key.
func (s *Store) evict(key string, f *flight) {
	s.mu.Lock()
	if cur, ok := s.flights[key]; ok && cur == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
}

// Series returns the cached raw trace for (site, days).
func (s *Store) Series(site string, days int) (*timeseries.Series, error) {
	key := fmt.Sprintf("series|%s|%d", site, days)
	v, err := s.do(KindSeries, key, func() (any, error) {
		return s.trace(site, days)
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Series), nil
}

// pyramid returns the cached resolution pyramid for (site, days).
func (s *Store) pyramid(site string, days int) (*timeseries.Pyramid, error) {
	key := fmt.Sprintf("pyramid|%s|%d", site, days)
	v, err := s.do(kindPyramid, key, func() (any, error) {
		series, err := s.Series(site, days)
		if err != nil {
			return nil, err
		}
		return timeseries.NewPyramid(series, s.ladder)
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Pyramid), nil
}

// View returns the cached slot view for (site, days, n), derived through
// the series' resolution pyramid.
func (s *Store) View(site string, days, n int) (*timeseries.SlotView, error) {
	key := fmt.Sprintf("view|%s|%d|%d", site, days, n)
	v, err := s.do(KindView, key, func() (any, error) {
		p, err := s.pyramid(site, days)
		if err != nil {
			return nil, err
		}
		return p.View(n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.SlotView), nil
}

// Eval returns the cached evaluator for (site, days, n, opts). The
// returned evaluator is shared — it is safe for concurrent use and must
// not be mutated.
func (s *Store) Eval(site string, days, n int, opts EvalOptions) (*optimize.Eval, error) {
	key := fmt.Sprintf("eval|%s|%d|%d|%s", site, days, n, opts.Fingerprint())
	v, err := s.do(KindEval, key, func() (any, error) {
		view, err := s.View(site, days, n)
		if err != nil {
			return nil, err
		}
		return optimize.NewEval(view, opts.apply()...)
	})
	if err != nil {
		return nil, err
	}
	return v.(*optimize.Eval), nil
}

// Grid returns the cached grid-search result for the full tuple
// (site, days, n, opts, space, ref). The returned result is shared and
// must not be mutated.
func (s *Store) Grid(site string, days, n int, opts EvalOptions, space optimize.Space, ref optimize.RefKind) (*optimize.SearchResult, error) {
	key := fmt.Sprintf("grid|%s|%d|%d|%s|%s|%d", site, days, n, opts.Fingerprint(), SpaceFingerprint(space), int(ref))
	v, err := s.do(KindGrid, key, func() (any, error) {
		e, err := s.Eval(site, days, n, opts)
		if err != nil {
			return nil, err
		}
		return e.GridSearch(space, ref)
	})
	if err != nil {
		return nil, err
	}
	return v.(*optimize.SearchResult), nil
}

// Stats snapshots the hit/miss counters. The snapshot is consistent
// across kinds: it cannot observe a Reset half-applied.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Series: s.stats[KindSeries],
		View:   s.stats[KindView],
		Eval:   s.stats[KindEval],
		Grid:   s.stats[KindGrid],
	}
}

// Len returns the number of cached entries (completed successes plus
// in-flight computations; failed flights are evicted on completion).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// Keys returns the cached keys in sorted order — a debugging and testing
// aid.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.flights))
	for k := range s.flights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Reset drops every cached entry and zeroes the counters, atomically
// with respect to every other store operation: a request observes either
// the full pre-Reset state or the full post-Reset state, never a swapped
// map with stale counters. It is safe for concurrent use — a serving
// daemon can expose it as an admin cache-flush without stopping the
// world. In-flight computations complete against the old map: their
// waiters still receive the result, it just is not shared with requests
// that arrive after the Reset (which recompute into the new map).
func (s *Store) Reset() {
	s.mu.Lock()
	s.flights = make(map[string]*flight)
	for k := range s.stats {
		s.stats[k] = Counter{}
	}
	s.mu.Unlock()
}
