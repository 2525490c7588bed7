package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"solarpred/internal/metrics"
	"solarpred/internal/timeseries"
)

// testConfig returns a small, fast fleet configuration for tests.
func testConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Sites = 6
	cfg.Days = 4
	cfg.N = 24
	cfg.ResolutionMinutes = 30
	cfg.WarmupDays = 1
	cfg.Seed = 42
	return cfg
}

// naiveSummary is the reference the streaming path is checked against:
// materialize every per-node result in one slice, then compute the
// fleet statistics directly with ordinary float arithmetic and an exact
// sort-based quantile.
func naiveSummary(t *testing.T, cfg Config) (Summary, []float64) {
	t.Helper()
	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	sites, err := BuildSites(norm)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(sites, norm.N)

	results := make([]NodeResult, norm.Nodes)
	for i := 0; i < norm.Nodes; i++ {
		site := i % norm.Sites
		v, err := store.View(sites[site].Name, norm.Days, norm.N)
		if err != nil {
			t.Fatal(err)
		}
		thr := metrics.PeakThreshold(v.PeakMean(), metrics.DefaultROIFraction)
		nr, err := RunNode(&norm, i, v, thr)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = nr
	}

	var s Summary
	var mapes []float64
	var mapeSum, mapeSq float64
	s.MAPE.Min = math.Inf(1)
	s.MAPE.Max = math.Inf(-1)
	for i := range results {
		r := &results[i]
		s.Nodes++
		s.Slots += int64(r.Slots)
		s.DownSlots += int64(r.DownSlots)
		s.HarvestedJ += r.HarvestedJ
		s.ConsumedJ += r.ConsumedJ
		s.WastedJ += r.WastedJ
		s.MeanDuty += r.MeanDuty
		if r.Dead {
			s.Dead++
		} else if r.Degraded {
			s.Degraded++
		}
		if r.Scored == 0 {
			s.Unscored++
			continue
		}
		mapes = append(mapes, r.MAPE)
		mapeSum += r.MAPE
		mapeSq += r.MAPE * r.MAPE
		if r.MAPE < s.MAPE.Min {
			s.MAPE.Min = r.MAPE
		}
		if r.MAPE > s.MAPE.Max {
			s.MAPE.Max = r.MAPE
		}
	}
	if s.Slots > 0 {
		s.DowntimeFrac = float64(s.DownSlots) / float64(s.Slots)
	}
	if s.HarvestedJ > 0 {
		s.Utilisation = s.ConsumedJ / s.HarvestedJ
	}
	if s.Nodes > 0 {
		s.MeanDuty /= float64(s.Nodes)
	}
	if n := len(mapes); n > 0 {
		s.MAPE.Nodes = n
		s.MAPE.Mean = mapeSum / float64(n)
		variance := mapeSq/float64(n) - s.MAPE.Mean*s.MAPE.Mean
		if variance > 0 {
			s.MAPE.Std = math.Sqrt(variance)
		}
	}
	sort.Float64s(mapes)
	return s, mapes
}

// closeScaled reports |a-b| ≤ tol·max(1, |a|, |b|).
func closeScaled(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestStreamingMatchesNaive is the equivalence contract: the sharded
// streaming aggregation equals the materialize-everything reference to
// 1e-9 (scaled) on every scalar statistic, and the sketch quantiles land
// within the sketch's guaranteed relative accuracy of the exact
// empirical quantiles — across several (fleet size, shards, workers)
// combinations.
func TestStreamingMatchesNaive(t *testing.T) {
	combos := []struct{ nodes, shards, workers int }{
		{30, 1, 1},
		{30, 7, 3},
		{64, 16, 4},
		{97, 5, runtime.GOMAXPROCS(0)},
	}
	const tol = 1e-9
	for _, c := range combos {
		cfg := testConfig(c.nodes)
		cfg.Shards = c.shards
		cfg.Workers = c.workers

		want, mapes := naiveSummary(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("nodes=%d shards=%d workers=%d: %v", c.nodes, c.shards, c.workers, err)
		}
		got := res.Summary

		if got.Nodes != want.Nodes || got.Slots != want.Slots || got.DownSlots != want.DownSlots ||
			got.Dead != want.Dead || got.Degraded != want.Degraded || got.Unscored != want.Unscored ||
			got.MAPE.Nodes != want.MAPE.Nodes {
			t.Fatalf("nodes=%d shards=%d workers=%d: counts diverge:\n got %+v\nwant %+v",
				c.nodes, c.shards, c.workers, got, want)
		}
		scalars := []struct {
			name      string
			got, want float64
		}{
			{"downtime_frac", got.DowntimeFrac, want.DowntimeFrac},
			{"harvested_j", got.HarvestedJ, want.HarvestedJ},
			{"consumed_j", got.ConsumedJ, want.ConsumedJ},
			{"wasted_j", got.WastedJ, want.WastedJ},
			{"utilisation", got.Utilisation, want.Utilisation},
			{"mean_duty", got.MeanDuty, want.MeanDuty},
			{"mape_mean", got.MAPE.Mean, want.MAPE.Mean},
			{"mape_std", got.MAPE.Std, want.MAPE.Std},
			{"mape_min", got.MAPE.Min, want.MAPE.Min},
			{"mape_max", got.MAPE.Max, want.MAPE.Max},
		}
		for _, sc := range scalars {
			if !closeScaled(sc.got, sc.want, tol) {
				t.Errorf("nodes=%d shards=%d workers=%d: %s = %.15g, want %.15g",
					c.nodes, c.shards, c.workers, sc.name, sc.got, sc.want)
			}
		}
		// Quantiles: the sketch promises (γ-1)/(γ+1) relative accuracy
		// against the exact empirical quantile.
		relErr := 2 * (sketchGamma - 1) / (sketchGamma + 1)
		for _, qc := range []struct {
			q   float64
			got float64
		}{{0.50, got.MAPE.P50}, {0.90, got.MAPE.P90}, {0.99, got.MAPE.P99}} {
			exact := mapes[int(qc.q*float64(len(mapes)-1))]
			if exact >= sketchMin && math.Abs(qc.got-exact)/exact > relErr {
				t.Errorf("nodes=%d shards=%d workers=%d: p%.0f = %.4f, exact %.4f (rel err > %.2f%%)",
					c.nodes, c.shards, c.workers, 100*qc.q, qc.got, exact, 100*relErr)
			}
		}
	}
}

// TestRunDeterministic is the determinism contract: the same master seed
// produces a bit-identical fleet summary regardless of worker count and
// shard partition.
func TestRunDeterministic(t *testing.T) {
	base := testConfig(80)
	var wantJSON []byte
	for _, shape := range []struct{ workers, shards int }{
		{1, 1},
		{1, 5},
		{4, 4},
		{4, 13},
		{runtime.GOMAXPROCS(0), 32},
		{runtime.GOMAXPROCS(0), 80},
	} {
		cfg := base
		cfg.Workers = shape.workers
		cfg.Shards = shape.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", shape.workers, shape.shards, err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if wantJSON == nil {
			wantJSON = b
			continue
		}
		if string(b) != string(wantJSON) {
			t.Errorf("workers=%d shards=%d: summary diverged:\n got %s\nwant %s",
				shape.workers, shape.shards, b, wantJSON)
		}
	}
}

// TestRunSeedSensitivity checks a different master seed actually changes
// the fleet (guards against the seed being plumbed nowhere).
func TestRunSeedSensitivity(t *testing.T) {
	a := testConfig(40)
	b := testConfig(40)
	b.Seed = a.Seed + 1
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Summary.HarvestedJ == rb.Summary.HarvestedJ {
		t.Fatal("different master seeds produced identical harvest totals")
	}
}

// TestBuildSitesDeterministicAndValid checks the sampled site set is a
// pure function of the config and every site validates.
func TestBuildSitesDeterministicAndValid(t *testing.T) {
	cfg := testConfig(10)
	s1, err := BuildSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != cfg.Sites {
		t.Fatalf("%d sites, want %d", len(s1), cfg.Sites)
	}
	for i := range s1 {
		if err := s1[i].Validate(); err != nil {
			t.Errorf("site %d invalid: %v", i, err)
		}
		if s1[i].Name != s2[i].Name || s1[i].Seed != s2[i].Seed ||
			s1[i].Climate.Name != s2[i].Climate.Name {
			t.Errorf("site %d not deterministic", i)
		}
	}
	// Site set must not depend on fleet size (trace sharing across sweep
	// points depends on this).
	big := cfg
	big.Nodes = cfg.Nodes * 50
	s3, err := BuildSites(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].Name != s3[i].Name || s1[i].Seed != s3[i].Seed {
			t.Fatalf("site %d changed with fleet size", i)
		}
	}
}

// TestSweepSharesStore checks sweep points agree with standalone runs
// and the shared store does not contaminate results.
func TestSweepSharesStore(t *testing.T) {
	cfg := testConfig(20)
	sizes := []int{10, 20, 35}
	results, err := Sweep(cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sizes) {
		t.Fatalf("%d results, want %d", len(results), len(sizes))
	}
	for i, size := range sizes {
		if results[i].Nodes != size {
			t.Fatalf("point %d: nodes = %d, want %d", i, results[i].Nodes, size)
		}
		solo := cfg
		solo.Nodes = size
		want, err := Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(results[i].Summary)
		wb, _ := json.Marshal(want.Summary)
		if string(gb) != string(wb) {
			t.Errorf("sweep point %d nodes diverges from standalone run:\n got %s\nwant %s", size, gb, wb)
		}
	}
}

// TestConfigRejects covers normalization's validation.
func TestConfigRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Sites = 0 },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.ResolutionMinutes = 7 },
		func(c *Config) { c.N = 36 }, // 48 samples/day not divisible by 36
		func(c *Config) { c.Jitter = 1.0 },
		func(c *Config) { c.Jitter = -0.1 },
		func(c *Config) { c.HardwareSpread = 0.95 },
		func(c *Config) { c.NoiseSigma = 0.6 },
		func(c *Config) { c.Jitter = math.NaN() },
		func(c *Config) { c.HardwareSpread = math.NaN() },
		func(c *Config) { c.NoiseSigma = math.NaN() },
		func(c *Config) { c.DeadDowntime = -0.1 },
		func(c *Config) { c.DeadDowntime = 1.5 },
		func(c *Config) { c.DeadDowntime = math.NaN() },
		func(c *Config) { c.DegradedDowntime = -0.1 },
		func(c *Config) { c.DegradedDowntime = 1.5 },
		func(c *Config) { c.DegradedDowntime = math.NaN() },
		func(c *Config) { c.DegradedDowntime = c.DeadDowntime + 0.01 },
		func(c *Config) { c.WarmupDays = 99 },
		func(c *Config) { c.Mix = []ClimateShare{{Weight: -1}} },
		func(c *Config) { c.Mix = []ClimateShare{{Weight: 0}} },
		func(c *Config) { c.Harvest.StorageCapacityJ = -1 },
		func(c *Config) { c.Harvest.StorageCapacityJ = math.Inf(1) },
		func(c *Config) { c.Harvest.Panel.Efficiency = math.NaN() },
		func(c *Config) { c.Params.Alpha = 2 },
	}
	for i, mutate := range bad {
		cfg := testConfig(10)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunResultJSON checks the sweep artifact is well-formed JSON with
// the fields CI greps for.
func TestRunResultJSON(t *testing.T) {
	res, err := Run(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"nodes", "shards", "workers", "summary", "nodes_per_sec", "mem_sys_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("result JSON missing %q", key)
		}
	}
	if res.NodesPerSec <= 0 || res.NodeSlotsPerSec <= 0 {
		t.Error("throughput fields not populated")
	}
	if res.MemSysBytes == 0 {
		t.Error("mem_sys_bytes not populated")
	}
}

// BenchmarkRunNode times one virtual node of the default fleet (30 days
// of 48 slots with hardware spread and leakage) and reports the cost per
// node-slot. It runs at three noise levels: none, the default 2% (night
// slots skip their draw) and 50% (above the skip bound, every slot
// draws), so a slowdown of the full-draw path cannot hide behind the
// default.
func BenchmarkRunNode(b *testing.B) {
	cfg, err := DefaultConfig(1).normalized()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sites = 4
	sites, err := BuildSites(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store := NewStore(sites, cfg.N)
	views := make([]*timeseries.SlotView, len(sites))
	thresholds := make([]float64, len(sites))
	for i := range sites {
		if views[i], err = store.View(sites[i].Name, cfg.Days, cfg.N); err != nil {
			b.Fatal(err)
		}
		thresholds[i] = metrics.PeakThreshold(views[i].PeakMean(), metrics.DefaultROIFraction)
	}
	for _, sigma := range []float64{0, 0.02, 0.5} {
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			cfg := cfg
			cfg.NoiseSigma = sigma
			for i := 0; i < b.N; i++ {
				nr, err := RunNode(&cfg, i, views[i%cfg.Sites], thresholds[i%cfg.Sites])
				if err != nil {
					b.Fatal(err)
				}
				benchNode = nr
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Days*cfg.N), "ns/slot")
		})
	}
}

// benchNode keeps the benchmarked nodes observable to the compiler.
var benchNode NodeResult
