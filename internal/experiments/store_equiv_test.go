package experiments

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"solarpred/internal/dataset"
	"solarpred/internal/optimize"
)

// requireSameJSON fails unless got and want marshal to identical JSON.
// encoding/json prints floats in shortest round-trip form, so equal bytes
// mean bit-identical values.
func requireSameJSON(t *testing.T, loc string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("%s: marshal got: %v", loc, err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("%s: marshal want: %v", loc, err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs:\ngot:  %s\nwant: %s", loc, g, w)
	}
}

// TestStoreOnOffEquivalence proves that sharing a store is behaviour
// preserving: every driver run on one store that the drivers before it
// have already warmed ("on") produces rows bit-identical to the same
// driver on a fresh store of its own ("off").
func TestStoreOnOffEquivalence(t *testing.T) {
	shared := QuickConfig()

	type driver struct {
		name string
		run  func(cfg Config) (any, error)
	}
	drivers := []driver{
		{"TableII", func(cfg Config) (any, error) { return TableII(cfg, 48) }},
		{"TableIII", func(cfg Config) (any, error) { return TableIII(cfg) }},
		{"TableV", func(cfg Config) (any, error) { return TableV(cfg) }},
		{"Fig7", func(cfg Config) (any, error) { return Fig7(cfg, 48) }},
		{"Guidelines", func(cfg Config) (any, error) { return Guidelines(cfg, 48) }},
		{"Baselines", func(cfg Config) (any, error) { return Baselines(cfg, 48, []float64{0.3, 0.7}) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			want, err := d.run(QuickConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.run(shared)
			if err != nil {
				t.Fatal(err)
			}
			requireSameJSON(t, d.name, got, want)
		})
	}
	if st := shared.Store.Stats(); st.Grid.Hits == 0 {
		t.Error("the shared store served no grid twice")
	}
}

// TestStoreGridMatchesDirectSearch pins every grid the repro drivers
// read from the store against an independent computation that shares
// nothing with it: a freshly generated trace, slotted directly and
// grid-searched on its own evaluator. Every cell must be bit-identical.
func TestStoreGridMatchesDirectSearch(t *testing.T) {
	cfg := QuickConfig()
	for _, tu := range gridTuples(t, cfg, 48) {
		got, err := cfg.gridFor(tu.site, tu.n, tu.ref)
		if err != nil {
			t.Fatal(err)
		}
		site, err := dataset.SiteByName(tu.site)
		if err != nil {
			t.Fatal(err)
		}
		series, err := dataset.GenerateDays(site, cfg.Days)
		if err != nil {
			t.Fatal(err)
		}
		view, err := series.Slot(tu.n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := optimize.NewEval(view, optimize.WithWarmupDays(cfg.WarmupDays))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.GridSearch(cfg.Space, tu.ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.Best != want.Best || len(got.Cells) != len(want.Cells) {
			t.Fatalf("%+v: best %+v (%d cells), direct %+v (%d cells)",
				tu, got.Best, len(got.Cells), want.Best, len(want.Cells))
		}
		for i := range want.Cells {
			if got.Cells[i] != want.Cells[i] {
				t.Fatalf("%+v: cell %d = %+v, direct %+v", tu, i, got.Cells[i], want.Cells[i])
			}
		}
	}
}

// TestStoreViewsMatchDirectSlotting pins the pyramid-derived store views
// against direct slotting of the raw trace, cell for cell and
// bit-identical: the pyramid aggregates the M==1 base view with the same
// sequential sums Series.Slot performs.
func TestStoreViewsMatchDirectSlotting(t *testing.T) {
	cfg := QuickConfig()
	for _, site := range cfg.Sites {
		series, err := cfg.Trace(site)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cfg.Ns {
			view, err := cfg.Store.View(site, cfg.Days, n)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := series.Slot(n)
			if err != nil {
				t.Fatal(err)
			}
			if view.N != direct.N || view.M != direct.M || view.DaysCount != direct.DaysCount {
				t.Fatalf("%s N=%d: geometry mismatch", site, n)
			}
			for i := range direct.Start {
				if view.Start[i] != direct.Start[i] {
					t.Fatalf("%s N=%d: Start[%d] = %v, direct %v", site, n, i, view.Start[i], direct.Start[i])
				}
				if view.Mean[i] != direct.Mean[i] {
					t.Fatalf("%s N=%d: Mean[%d] = %v, direct %v", site, n, i, view.Mean[i], direct.Mean[i])
				}
			}
			if !view.HasPrefix() {
				t.Fatalf("%s N=%d: store view lacks the prefix column", site, n)
			}
		}
	}
}

// gridTuple is one (site, N, ref) grid-search tuple.
type gridTuple struct {
	site string
	n    int
	ref  optimize.RefKind
}

// gridTuples lists the distinct (site, N, ref) grid tuples the repro
// driver set needs at sampling rate n48: one RefSlotMean grid per
// non-degenerate (site, N) plus one per (site, n48) regardless of Ns, and
// one RefSlotStart grid per (site, n48) for Table II's dual optimisation.
func gridTuples(t *testing.T, cfg Config, n48 int) []gridTuple {
	t.Helper()
	var out []gridTuple
	seen := map[gridTuple]bool{}
	add := func(tu gridTuple) {
		if !seen[tu] {
			seen[tu] = true
			out = append(out, tu)
		}
	}
	for _, site := range cfg.Sites {
		for _, n := range cfg.Ns {
			deg, err := Degenerate(site, n)
			if err != nil {
				t.Fatal(err)
			}
			if !deg {
				add(gridTuple{site, n, optimize.RefSlotMean})
			}
		}
		add(gridTuple{site, n48, optimize.RefSlotMean})
		add(gridTuple{site, n48, optimize.RefSlotStart})
	}
	return out
}

// TestReproDriversGridSearchOncePerTuple runs the full quick-scale repro
// driver set concurrently against one store — the way cmd/repro does —
// and asserts the acceptance invariant of the store: every
// (site, N, space, ref) tuple is grid-searched exactly once per process,
// with parallel drivers deduplicated by single flight. Run under -race
// this doubles as the single-flight race check.
func TestReproDriversGridSearchOncePerTuple(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = 4
	const n48 = 48

	drivers := []func() error{
		func() error { _, err := TableII(cfg, n48); return err },
		func() error { _, err := TableIII(cfg); return err },
		func() error { _, err := TableV(cfg); return err },
		func() error { _, err := Fig7(cfg, n48); return err },
		func() error { _, err := Guidelines(cfg, n48); return err },
		func() error { _, err := Baselines(cfg, n48, []float64{0.3, 0.7}); return err },
		func() error { _, err := TableVI(cfg); return err },
	}
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func(i int, d func() error) {
			defer wg.Done()
			errs[i] = d()
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
	}

	st := cfg.Store.Stats()
	want := uint64(len(gridTuples(t, cfg, n48)))
	if st.Grid.Misses != want {
		t.Errorf("grid searches computed = %d, want exactly %d (one per tuple)", st.Grid.Misses, want)
	}
	if st.Grid.Hits == 0 {
		t.Error("no grid reuse across drivers")
	}
	if st.Series.Misses != uint64(len(cfg.Sites)) {
		t.Errorf("series generated %d times, want %d", st.Series.Misses, len(cfg.Sites))
	}
	if st.Eval.Misses != want-uint64(len(cfg.Sites)) {
		// One evaluator per (site, N) mean tuple; the RefSlotStart grids
		// share the (site, 48) evaluator.
		t.Errorf("evaluators built = %d, want %d", st.Eval.Misses, want-uint64(len(cfg.Sites)))
	}

	// A warm second pass computes nothing new.
	if _, err := TableIII(cfg); err != nil {
		t.Fatal(err)
	}
	if again := cfg.Store.Stats(); again.Grid.Misses != st.Grid.Misses {
		t.Errorf("second pass recomputed grids: %d → %d", st.Grid.Misses, again.Grid.Misses)
	}

	// And the warm rows still match a run on a fresh store bit for bit.
	want3, err := TableIII(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	got3, err := TableIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "TableIII(warm)", got3, want3)
}
