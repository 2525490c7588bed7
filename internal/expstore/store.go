// Package expstore memoises the expensive artefacts of the experiment
// pipeline — generated site traces, slot views, evaluators, grid-search
// results and replayed guards — behind one concurrency-safe store shared
// by every driver in a process and by the prediction daemon.
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
//     fingerprint, reference kind);
//   - a guard by (site, days, N, α, D, K, guard config): the guarded
//     predictor replayed over the slot view, published read-only.
//
// Floating-point key components are fingerprinted with exact shortest
// round-trip formatting, so two spaces compare equal exactly when their
// parameters are bit-identical.
//
// # Single flight
//
// The flight map is the process's one deduplication layer. The first
// request for a key starts a flight whose computation runs on its own
// goroutine; every request for the key, the first one included, waits
// on the flight or on its own context, whichever ends first. Concurrent
// requests therefore share one computation, and a finished flight is
// served from the map without waiting.
//
// A flight counts its waiters. When the last waiter of an unfinished
// flight gives up, the flight is abandoned: its context is cancelled
// (a computation waiting on a dependency stops waiting, and the guard
// replay stops at the next day boundary), it fails with the context's
// error, and it leaves the map at once, so a later request starts
// afresh. A computation that panics fails its flight with a
// *PanicError for every waiter. A failed flight is evicted before it
// publishes: a failure is a property of the attempt, not of the key, so
// under a long-running server a transient error must not wedge a tuple
// for the process lifetime.
//
// At most GOMAXPROCS flights run their own work at once. A flight takes
// a slot only after its dependencies have resolved and never holds one
// while it waits on another flight, so nested flights (grid → eval →
// view → pyramid → series) cannot deadlock, and a flight abandoned
// while queued for a slot never starts its work. Wait blocks until
// every started flight has finished.
//
// # Invalidation and memory bounds
//
// Successful entries are never invalidated: keys carry the full
// provenance of their value and the underlying data is immutable for a
// process lifetime, so entries never go stale and are never evicted
// (failed and abandoned flights are the exception — they leave the map
// so retries can proceed). Memory is bounded by the set of distinct
// keys requested — dominated by the grid results (one cell per (α, D,
// K) point) and the slot-view/evaluator columns, a few dozen MB at full
// paper scale. Guards are the exception to that bound: their keys carry
// a client-chosen α, so a daemon holds one guard per distinct α asked
// for until the next Reset. Reset drops everything for callers that want
// a cold store and is safe to call at any time, including concurrently
// with live readers.
package expstore

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"solarpred/internal/core"
	"solarpred/internal/guard"
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

// Fingerprint renders the options as an exact key component.
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
	// kindGuard counts the replayed guards, which only the daemon asks
	// for; Stats does not report them.
	kindGuard
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

// FlightStats counts the store's flights of every kind. Unlike Stats,
// the counters are cumulative across Reset.
type FlightStats struct {
	// Computations is the number of flights started.
	Computations uint64 `json:"computations"`
	// Coalesced is the number of requests that joined an unfinished
	// flight instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// InFlight is the number of started flights not yet finished.
	InFlight int64 `json:"in_flight"`
	// Panics is the number of computations that panicked.
	Panics uint64 `json:"panics"`
	// Abandoned is the number of flights cancelled because every waiter
	// gave up before the result arrived.
	Abandoned uint64 `json:"abandoned"`
}

// PanicError is the error every waiter of a flight receives when its
// computation panicked. The flight is evicted, so a retry recomputes.
type PanicError struct {
	Value any
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("expstore: computation panicked: %v", e.Value)
}

// work is a flight's computation. It runs on the flight's own goroutine
// and its context is cancelled if the flight is abandoned.
type work func(ctx context.Context) (any, error)

// flight is one single-flight computation. val, err, finished and
// waiters are guarded by Store.mu; the flight goroutine sets val and err
// before it closes done, so a waiter woken by done reads them without
// the lock.
type flight struct {
	key    string
	done   chan struct{}
	cancel context.CancelFunc
	val    any
	err    error

	finished bool
	waiters  int
}

// Store is the concurrency-safe memoization layer. The zero value is not
// usable; construct with New.
type Store struct {
	trace TraceFunc
	// ladder seeds each series' resolution pyramid, fixing the view
	// derivation chain so cached views are bit-stable across runs and
	// scheduling.
	ladder []int
	// sem bounds how many flights run their own work at once.
	sem chan struct{}

	// mu guards the flight map and every counter, so Reset's map swap
	// and counter zeroing are one atomic step with respect to every
	// hit/miss account. idle is signalled when the last started flight
	// finishes.
	mu      sync.Mutex
	idle    sync.Cond
	flights map[string]*flight
	stats   [numKinds]Counter
	fstats  FlightStats
}

// New builds a store over a trace generator. ladder lists the sampling
// rates each series' resolution pyramid pre-builds finest-first (pass the
// experiment's N set); it may be nil, in which case every view is slotted
// directly from the raw trace.
func New(trace TraceFunc, ladder []int) *Store {
	s := &Store{
		trace:   trace,
		ladder:  append([]int(nil), ladder...),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		flights: make(map[string]*flight),
	}
	s.idle.L = &s.mu
	return s
}

// do returns the value of key's flight, counting a hit when the key
// already has one and a miss when this request starts it. A finished
// flight is returned at once; otherwise the request waits for the flight
// or for its own ctx, and leaves the flight if ctx ends first. start
// builds the flight's computation and is called only on a miss, so a hit
// allocates no closure.
func (s *Store) do(ctx context.Context, kind Kind, key string, start func() work) (any, error) {
	s.mu.Lock()
	f, ok := s.flights[key]
	if ok && f.finished {
		s.stats[kind].Hits++
		s.mu.Unlock()
		return f.val, f.err
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if ok {
		f.waiters++
		s.stats[kind].Hits++
		s.fstats.Coalesced++
		s.mu.Unlock()
	} else {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{key: key, done: make(chan struct{}), cancel: cancel, waiters: 1}
		s.flights[key] = f
		s.stats[kind].Misses++
		s.fstats.Computations++
		s.fstats.InFlight++
		s.mu.Unlock()
		go s.run(fctx, f, start())
	}
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		s.leave(f)
		return nil, ctx.Err()
	}
}

// leave drops one waiter from f. The last waiter of an unfinished flight
// abandons it: the flight is cancelled and leaves the map at once, so
// later requests start afresh instead of joining a doomed computation.
func (s *Store) leave(f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.waiters--
	if f.waiters > 0 || f.finished {
		return
	}
	s.fstats.Abandoned++
	f.cancel()
	s.evict(f)
}

// run computes f and publishes the result. An abandoned flight fails
// with its context's error whatever its computation returned, and a
// failed flight is evicted before it publishes.
func (s *Store) run(ctx context.Context, f *flight, w work) {
	val, panicked, err := compute(ctx, w)
	s.mu.Lock()
	if ctx.Err() != nil {
		val, err = nil, ctx.Err()
	}
	if err != nil {
		s.evict(f)
	}
	if panicked {
		s.fstats.Panics++
	}
	f.val, f.err = val, err
	f.finished = true
	close(f.done)
	s.fstats.InFlight--
	if s.fstats.InFlight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	f.cancel()
}

// compute runs w, converting a panic into a *PanicError.
func compute(ctx context.Context, w work) (val any, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, panicked, err = nil, true, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	val, err = w(ctx)
	return val, false, err
}

// evict removes f from the map, but only if its key still maps to it — a
// concurrent Reset may have swapped the map (making the delete a no-op)
// or a retry may already have installed a fresh flight under the key.
// The caller holds s.mu.
func (s *Store) evict(f *flight) {
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
}

// bounded runs a flight's own work under one of the store's compute
// slots. A flight whose context ends while it queues never runs it.
func (s *Store) bounded(ctx context.Context, own func() (any, error)) (any, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return own()
}

// Wait blocks until every started flight has finished, those started
// while it waits included.
func (s *Store) Wait() {
	s.mu.Lock()
	for s.fstats.InFlight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Series returns the cached raw trace for (site, days).
func (s *Store) Series(site string, days int) (*timeseries.Series, error) {
	return s.series(context.Background(), site, days)
}

func (s *Store) series(ctx context.Context, site string, days int) (*timeseries.Series, error) {
	key := fmt.Sprintf("series|%s|%d", site, days)
	v, err := s.do(ctx, KindSeries, key, func() work {
		return func(ctx context.Context) (any, error) {
			return s.bounded(ctx, func() (any, error) { return s.trace(site, days) })
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Series), nil
}

// pyramid returns the cached resolution pyramid for (site, days).
func (s *Store) pyramid(ctx context.Context, site string, days int) (*timeseries.Pyramid, error) {
	key := fmt.Sprintf("pyramid|%s|%d", site, days)
	v, err := s.do(ctx, kindPyramid, key, func() work {
		return func(ctx context.Context) (any, error) {
			series, err := s.series(ctx, site, days)
			if err != nil {
				return nil, err
			}
			return s.bounded(ctx, func() (any, error) { return timeseries.NewPyramid(series, s.ladder) })
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Pyramid), nil
}

// View returns the cached slot view for (site, days, n), derived through
// the series' resolution pyramid.
func (s *Store) View(site string, days, n int) (*timeseries.SlotView, error) {
	return s.view(context.Background(), site, days, n)
}

func (s *Store) view(ctx context.Context, site string, days, n int) (*timeseries.SlotView, error) {
	key := fmt.Sprintf("view|%s|%d|%d", site, days, n)
	v, err := s.do(ctx, KindView, key, func() work {
		return func(ctx context.Context) (any, error) {
			p, err := s.pyramid(ctx, site, days)
			if err != nil {
				return nil, err
			}
			return s.bounded(ctx, func() (any, error) { return p.View(n) })
		}
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
	return s.eval(context.Background(), site, days, n, opts)
}

func (s *Store) eval(ctx context.Context, site string, days, n int, opts EvalOptions) (*optimize.Eval, error) {
	key := fmt.Sprintf("eval|%s|%d|%d|%s", site, days, n, opts.Fingerprint())
	v, err := s.do(ctx, KindEval, key, func() work {
		return func(ctx context.Context) (any, error) {
			view, err := s.view(ctx, site, days, n)
			if err != nil {
				return nil, err
			}
			return s.bounded(ctx, func() (any, error) { return optimize.NewEval(view, opts.apply()...) })
		}
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
	return s.GridContext(context.Background(), site, days, n, opts, space, ref)
}

// GridContext is Grid for a caller that may give up: it returns
// ctx.Err() once ctx ends, and a grid flight every caller has given up
// on is cancelled before its search starts. The search itself is not
// interruptible once started.
func (s *Store) GridContext(ctx context.Context, site string, days, n int, opts EvalOptions, space optimize.Space, ref optimize.RefKind) (*optimize.SearchResult, error) {
	key := fmt.Sprintf("grid|%s|%d|%d|%s|%s|%d", site, days, n, opts.Fingerprint(), SpaceFingerprint(space), int(ref))
	v, err := s.do(ctx, KindGrid, key, func() work {
		return func(ctx context.Context) (any, error) {
			e, err := s.eval(ctx, site, days, n, opts)
			if err != nil {
				return nil, err
			}
			return s.bounded(ctx, func() (any, error) { return e.GridSearch(space, ref) })
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*optimize.SearchResult), nil
}

// GuardSpec is a guard configuration together with its key component,
// rendered once so that a warm Guard lookup formats no config.
type GuardSpec struct {
	cfg guard.Config
	fp  string
}

// NewGuardSpec keys a guard configuration. %v renders every field of
// the flat config in declaration order, floats in shortest round-trip
// form, so two specs key alike exactly when their configs are equal.
func NewGuardSpec(cfg guard.Config) GuardSpec {
	return GuardSpec{cfg: cfg, fp: fmt.Sprintf("%v", cfg)}
}

// guardKey renders a guard's key by appending into a stack buffer: it
// runs on every warm forecast, where fmt's boxed arguments would
// allocate once per field.
func guardKey(site string, days, n int, params core.Params, spec GuardSpec) string {
	var buf [128]byte
	b := append(buf[:0], "guard|"...)
	b = append(b, site...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(days), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, "|a"...)
	b = strconv.AppendFloat(b, params.Alpha, 'g', -1, 64)
	b = append(b, ",d"...)
	b = strconv.AppendInt(b, int64(params.D), 10)
	b = append(b, ",k"...)
	b = strconv.AppendInt(b, int64(params.K), 10)
	b = append(b, '|')
	b = append(b, spec.fp...)
	return string(b)
}

// Guard returns the guarded predictor for (site, days, n, params) under
// spec, replayed over the site's cached slot view on first use. The
// replay is the session-ownership step of the guard's contract: the
// guard is built and fed the whole observation stream on the flight's
// own goroutine, then published read-only — callers may only use its
// non-mutating methods. The replay polls the flight's context at day
// boundaries, so an abandoned replay stops instead of finishing for
// nobody.
func (s *Store) Guard(ctx context.Context, site string, days, n int, params core.Params, spec GuardSpec) (*guard.Guard, error) {
	v, err := s.do(ctx, kindGuard, guardKey(site, days, n, params, spec), func() work {
		return func(ctx context.Context) (any, error) {
			view, err := s.view(ctx, site, days, n)
			if err != nil {
				return nil, err
			}
			return s.bounded(ctx, func() (any, error) {
				g, err := guard.New(n, params, spec.cfg)
				if err != nil {
					return nil, err
				}
				for t := 0; t < view.TotalSlots(); t++ {
					if t%n == 0 && ctx.Err() != nil {
						return nil, ctx.Err()
					}
					if err := g.Observe(t%n, view.Start[t]); err != nil {
						return nil, err
					}
				}
				return g, nil
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*guard.Guard), nil
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

// Flights snapshots the flight counters.
func (s *Store) Flights() FlightStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fstats
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

// Reset drops every cached entry and zeroes the hit/miss counters,
// atomically with respect to every other store operation: a request
// observes either the full pre-Reset state or the full post-Reset state,
// never a swapped map with stale counters. The flight counters are
// cumulative and survive. It is safe for concurrent use — a serving
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
