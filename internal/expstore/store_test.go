package expstore

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// synthTrace generates a deterministic pseudo-solar trace per (site,
// days): a daytime bump whose amplitude wobbles day to day and differs by
// site, enough structure for grid search to have a real optimum.
func synthTrace(site string, days int) (*timeseries.Series, error) {
	const res = 15
	perDay := timeseries.MinutesPerDay / res
	var siteSalt float64
	for _, c := range site {
		siteSalt += float64(c)
	}
	samples := make([]float64, perDay*days)
	for d := 0; d < days; d++ {
		amp := 700 + 150*math.Sin(float64(d)*0.7+siteSalt)
		for i := 0; i < perDay; i++ {
			x := float64(i)/float64(perDay)*2 - 1 // [-1, 1) over the day
			v := (0.6 - x*x) * amp
			if v < 0 {
				v = 0
			}
			samples[d*perDay+i] = v * (1 + 0.2*math.Sin(float64(i)*0.9+float64(d)))
		}
	}
	return timeseries.New(res, samples)
}

// testSpace is a tiny but non-trivial search space.
func testSpace() optimize.Space {
	return optimize.Space{
		Alphas: []float64{0, 0.5, 1},
		Ds:     []int{2, 4},
		Ks:     []int{1, 2},
	}
}

func testOpts() EvalOptions { return EvalOptions{WarmupDays: 5} }

func TestStoreCachesEveryKind(t *testing.T) {
	var calls atomic.Int64
	s := New(func(site string, days int) (*timeseries.Series, error) {
		calls.Add(1)
		return synthTrace(site, days)
	}, []int{48, 24})

	const days = 20
	ser1, err := s.Series("A", days)
	if err != nil {
		t.Fatal(err)
	}
	ser2, err := s.Series("A", days)
	if err != nil {
		t.Fatal(err)
	}
	if ser1 != ser2 || calls.Load() != 1 {
		t.Fatalf("series not cached: %d trace calls", calls.Load())
	}

	v1, err := s.View("A", days, 24)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.View("A", days, 24)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("view not cached")
	}
	e1, err := s.Eval("A", days, 24, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Eval("A", days, 24, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("eval not cached")
	}
	if e1.View() != v1 {
		t.Fatal("eval not built on the cached view")
	}
	g1, err := s.Grid("A", days, 24, testOpts(), testSpace(), optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Grid("A", days, 24, testOpts(), testSpace(), optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("grid not cached")
	}
	if calls.Load() != 1 {
		t.Fatalf("trace regenerated: %d calls", calls.Load())
	}

	// Internal consumers count too: the pyramid reads the series once, the
	// grid's compute reads the eval once, the eval's compute reads the view
	// once — each a hit on the already-cached entry.
	st := s.Stats()
	if st.Series != (Counter{Hits: 2, Misses: 1}) {
		t.Errorf("series counter = %+v", st.Series)
	}
	if st.View != (Counter{Hits: 2, Misses: 1}) {
		t.Errorf("view counter = %+v", st.View)
	}
	if st.Eval != (Counter{Hits: 2, Misses: 1}) {
		t.Errorf("eval counter = %+v", st.Eval)
	}
	if st.Grid != (Counter{Hits: 1, Misses: 1}) {
		t.Errorf("grid counter = %+v", st.Grid)
	}
}

func TestStoreDistinctKeys(t *testing.T) {
	s := New(synthTrace, nil)
	const days = 20
	base, err := s.Grid("A", days, 24, testOpts(), testSpace(), optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	distinct := []struct {
		name string
		get  func() (*optimize.SearchResult, error)
	}{
		{"site", func() (*optimize.SearchResult, error) {
			return s.Grid("B", days, 24, testOpts(), testSpace(), optimize.RefSlotMean)
		}},
		{"n", func() (*optimize.SearchResult, error) {
			return s.Grid("A", days, 48, testOpts(), testSpace(), optimize.RefSlotMean)
		}},
		{"opts", func() (*optimize.SearchResult, error) {
			return s.Grid("A", days, 24, EvalOptions{WarmupDays: 6}, testSpace(), optimize.RefSlotMean)
		}},
		{"roi", func() (*optimize.SearchResult, error) {
			return s.Grid("A", days, 24, EvalOptions{WarmupDays: 5, ROIFraction: 0.2}, testSpace(), optimize.RefSlotMean)
		}},
		{"space", func() (*optimize.SearchResult, error) {
			sp := testSpace()
			sp.Alphas = []float64{0, 1}
			return s.Grid("A", days, 24, testOpts(), sp, optimize.RefSlotMean)
		}},
		{"ref", func() (*optimize.SearchResult, error) {
			return s.Grid("A", days, 24, testOpts(), testSpace(), optimize.RefSlotStart)
		}},
	}
	for _, d := range distinct {
		got, err := d.get()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got == base {
			t.Errorf("%s variation shared the base entry", d.name)
		}
	}
	if misses := s.Stats().Grid.Misses; misses != uint64(1+len(distinct)) {
		t.Errorf("grid misses = %d, want %d", misses, 1+len(distinct))
	}
}

// TestStoreSingleFlight hammers one tuple from many goroutines: the
// computation must run exactly once, with every other caller blocking on
// the same flight and sharing the result pointer.
func TestStoreSingleFlight(t *testing.T) {
	var traceCalls atomic.Int64
	s := New(func(site string, days int) (*timeseries.Series, error) {
		traceCalls.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return synthTrace(site, days)
	}, []int{48, 24})

	const workers = 16
	results := make([]*optimize.SearchResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = s.Grid("A", 20, 24, testOpts(), testSpace(), optimize.RefSlotMean)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] != results[0] {
			t.Fatalf("worker %d got a different result object", w)
		}
	}
	if traceCalls.Load() != 1 {
		t.Errorf("trace computed %d times", traceCalls.Load())
	}
	st := s.Stats()
	if st.Grid.Misses != 1 {
		t.Errorf("grid misses = %d, want 1", st.Grid.Misses)
	}
	if st.Grid.Hits != workers-1 {
		t.Errorf("grid hits = %d, want %d", st.Grid.Hits, workers-1)
	}
}

// TestStoreGridMatchesDirect pins store output to the unmemoized
// pipeline. With a nil ladder every view is slotted directly, so the
// results must be bit-identical.
func TestStoreGridMatchesDirect(t *testing.T) {
	s := New(synthTrace, nil)
	const days, n = 20, 24
	got, err := s.Grid("A", days, n, testOpts(), testSpace(), optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	series, err := synthTrace("A", days)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(testOpts().WarmupDays))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.GridSearch(testSpace(), optimize.RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cells = %d, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d: %+v vs %+v", i, got.Cells[i], want.Cells[i])
		}
	}
	if got.Best != want.Best {
		t.Fatalf("best: %+v vs %+v", got.Best, want.Best)
	}
}

func TestStoreErrorThenRetry(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	s := New(func(site string, days int) (*timeseries.Series, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("generate %s: %w", site, boom)
		}
		return synthTrace(site, days)
	}, []int{24})
	if _, err := s.Series("A", 20); !errors.Is(err, boom) {
		t.Fatalf("first attempt did not fail: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed flight retained: len = %d, keys = %v", s.Len(), s.Keys())
	}
	// The failure was a property of the attempt: the next request for the
	// same key recomputes and succeeds.
	if _, err := s.Series("A", 20); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("trace calls = %d, want 2 (fail, then retry)", calls.Load())
	}
	// Derived artefacts retry their dependencies too: a view whose series
	// failed once must come up clean now that the series is cached.
	if _, err := s.View("A", 20, 24); err != nil {
		t.Fatalf("view after series retry: %v", err)
	}
	st := s.Stats()
	if st.Series.Misses != 2 {
		t.Errorf("series misses = %d, want 2 (failed attempt + retry)", st.Series.Misses)
	}
}

func TestStoreErrorSharedByWaitersOnly(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	gate := make(chan struct{})
	s := New(func(site string, days int) (*timeseries.Series, error) {
		if calls.Add(1) == 1 {
			<-gate // hold the failing flight open while waiters pile on
			return nil, boom
		}
		return synthTrace(site, days)
	}, nil)

	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := s.Series("A", 20)
			errs <- err
		}()
	}
	// Wait until every goroutine has joined the flight (1 miss + 7 hits),
	// then release the failure.
	for {
		st := s.Stats()
		if st.Series.Hits+st.Series.Misses == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
	// Everyone who waited shared the error; the key itself is clean.
	if _, err := s.Series("A", 20); err != nil {
		t.Fatalf("retry after shared failure: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("trace calls = %d, want 2", calls.Load())
	}
}

// TestStoreResetRacesReaders drives Reset concurrently with live readers
// and asserts (under -race) that nobody observes torn state and every
// request still succeeds. Entries computed before a Reset keep serving
// the callers already holding them; requests after it recompute.
func TestStoreResetRacesReaders(t *testing.T) {
	s := New(synthTrace, []int{48, 24})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sites := []string{"A", "B"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				site := sites[(g+i)%len(sites)]
				if _, err := s.View(site, 20, 24); err != nil {
					t.Errorf("view during reset storm: %v", err)
					return
				}
				if _, err := s.Grid(site, 20, 24, testOpts(), testSpace(), optimize.RefSlotMean); err != nil {
					t.Errorf("grid during reset storm: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		s.Reset()
		_ = s.Stats()
		_ = s.Len()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// The store must be fully functional after the storm.
	if _, err := s.Grid("A", 20, 24, testOpts(), testSpace(), optimize.RefSlotMean); err != nil {
		t.Fatalf("store unusable after reset storm: %v", err)
	}
}

func TestStoreResetAndLen(t *testing.T) {
	s := New(synthTrace, []int{24})
	if _, err := s.View("A", 20, 24); err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 || len(s.Keys()) != s.Len() {
		t.Fatalf("len = %d, keys = %d", s.Len(), len(s.Keys()))
	}
	flights := s.Flights()
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("len after reset = %d", s.Len())
	}
	if st := s.Stats(); st.View.Misses != 0 || st.Series.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	// Flight counters are cumulative: callers subtract them across resets.
	if got := s.Flights(); got != flights || got.Computations == 0 {
		t.Errorf("flights after reset = %+v, before %+v", got, flights)
	}
	if _, err := s.View("A", 20, 24); err != nil {
		t.Fatalf("store unusable after reset: %v", err)
	}
}

func TestSpaceFingerprintExactness(t *testing.T) {
	a := testSpace()
	b := testSpace()
	if SpaceFingerprint(a) != SpaceFingerprint(b) {
		t.Error("identical spaces fingerprint differently")
	}
	b.Alphas = []float64{0, 0.5 + 1e-16, 1}
	if b.Alphas[1] != 0.5 && SpaceFingerprint(a) == SpaceFingerprint(b) {
		t.Error("distinct alphas fingerprint equal")
	}
	c := testSpace()
	c.Alphas = []float64{0.5, 0, 1} // order matters: cell ordering is part of the result
	if SpaceFingerprint(a) == SpaceFingerprint(c) {
		t.Error("reordered space fingerprints equal")
	}
}
