// Package fleet scales the single-node closed-loop simulation of
// cmd/nodesim to tens of thousands to millions of virtual nodes. The
// ROADMAP's north star is fleet scale; this package is the substrate:
//
//   - thousands of synthetic sites are instantiated by sampling
//     cloud.Climate parameters around the presets (cloud.SampleClimate)
//     from a single master seed, each with its own clear-sky geometry;
//   - every virtual node runs the panel → storage → duty-cycled-node loop
//     from internal/harvest (the allocation-free harvest.Sim step
//     function) with per-node hardware spread, per-node predictor
//     parameters and per-node sensor noise, all derived from
//     (master seed, node index) alone;
//   - nodes are partitioned into contiguous shards processed by a
//     fixed-size worker pool, and each shard folds its nodes into a
//     streaming ShardAgg (exact energy sums, one-pass MAPE moments, a
//     bounded-memory quantile sketch, dead/degraded counts) — memory is
//     O(shards + sites), never O(nodes);
//   - per-shard aggregates merge exactly, so the fleet Summary is
//     bit-identical across worker counts and shard layouts: parallelism
//     cannot leak into results.
//
// Site traces are generated through an expstore.Store, so a sweep over
// fleet sizes from one config generates each sampled climate's trace
// exactly once per process.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"solarpred/internal/cloud"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/expstore"
	"solarpred/internal/harvest"
	"solarpred/internal/metrics"
	"solarpred/internal/solar"
	"solarpred/internal/timeseries"
)

// ClimateShare weights one preset (or custom climate) in the fleet's
// site mix.
type ClimateShare struct {
	Climate cloud.Climate
	Weight  float64
}

// DefaultMix spreads sites across the four presets, weighted toward the
// variable climates where prediction quality actually matters.
func DefaultMix() []ClimateShare {
	return []ClimateShare{
		{Climate: cloud.Desert, Weight: 0.2},
		{Climate: cloud.Continental, Weight: 0.3},
		{Climate: cloud.Humid, Weight: 0.25},
		{Climate: cloud.Marine, Weight: 0.25},
	}
}

// Config describes one fleet run.
type Config struct {
	// Nodes is the fleet size (virtual nodes).
	Nodes int
	// Sites is the number of distinct synthetic sites; nodes are assigned
	// round-robin. Site traces are cached, so memory grows with Sites,
	// not Nodes.
	Sites int
	// Shards is the number of contiguous node ranges aggregated
	// independently (0 = 4× workers). Memory for aggregates is O(Shards).
	Shards int
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Days is the simulated trace length per node.
	Days int
	// N is the prediction slots per day.
	N int
	// ResolutionMinutes is the generated trace resolution; it must divide
	// a day into a multiple of N samples.
	ResolutionMinutes int
	// Seed is the master seed: every site climate, node hardware sample
	// and noise stream derives from it.
	Seed int64
	// Jitter is the climate-sampling spread around the presets (see
	// cloud.SampleClimate).
	Jitter float64
	// HardwareSpread is the per-node multiplicative spread applied to
	// panel area, storage capacity, load power and predictor parameters,
	// in [0, 0.9].
	HardwareSpread float64
	// NoiseSigma is the per-node multiplicative sensor noise on observed
	// slot-start samples.
	NoiseSigma float64
	// WarmupDays excludes the first days from MAPE scoring.
	WarmupDays int
	// DeadDowntime and DegradedDowntime classify nodes by brown-out
	// fraction: dead ≥ DeadDowntime, degraded ≥ DegradedDowntime.
	DeadDowntime     float64
	DegradedDowntime float64
	// Mix weights the climate presets across sites (nil = DefaultMix).
	Mix []ClimateShare
	// Harvest is the base node hardware each node's sample spreads
	// around.
	Harvest harvest.Config
	// Params is the base WCMA parameterisation.
	Params core.Params
	// Store, when non-nil, supplies cached site traces; a sweep shares
	// one store across its points so identical climates generate once per
	// process. It must have been built by NewStore over this config's
	// site set.
	Store *expstore.Store
}

// DefaultConfig returns a plausible fleet configuration at the given
// size: 64 sampled sites, 30 days at 15-minute resolution with 48 slots
// per day, 30% hardware spread and 2% sensor noise.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:             nodes,
		Sites:             64,
		Days:              30,
		N:                 48,
		ResolutionMinutes: 15,
		Seed:              1,
		Jitter:            0.3,
		HardwareSpread:    0.3,
		NoiseSigma:        0.02,
		WarmupDays:        3,
		DeadDowntime:      0.20,
		DegradedDowntime:  0.02,
		Harvest:           harvest.DefaultConfig(),
		Params:            core.Params{Alpha: 0.7, D: 10, K: 2},
	}
}

// normalized fills defaults and validates; it returns the effective
// config a Run uses.
func (c Config) normalized() (Config, error) {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = 4 * c.Workers
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	if c.Nodes <= 0 {
		return c, fmt.Errorf("fleet: %d nodes", c.Nodes)
	}
	if c.Sites <= 0 {
		return c, fmt.Errorf("fleet: %d sites", c.Sites)
	}
	if c.Days <= 0 {
		return c, fmt.Errorf("fleet: %d days", c.Days)
	}
	if c.ResolutionMinutes <= 0 || timeseries.MinutesPerDay%c.ResolutionMinutes != 0 {
		return c, fmt.Errorf("fleet: resolution %d min must divide a day", c.ResolutionMinutes)
	}
	perDay := timeseries.MinutesPerDay / c.ResolutionMinutes
	if c.N <= 0 || perDay%c.N != 0 {
		return c, fmt.Errorf("fleet: %d samples/day not divisible into %d slots", perDay, c.N)
	}
	// The range checks are written as !(in range) so NaN fails them.
	if !(c.Jitter >= 0 && c.Jitter < 1) {
		return c, fmt.Errorf("fleet: jitter %.3f out of [0,1)", c.Jitter)
	}
	if !(c.HardwareSpread >= 0 && c.HardwareSpread <= 0.9) {
		return c, fmt.Errorf("fleet: hardware spread %.3f out of [0,0.9]", c.HardwareSpread)
	}
	if !(c.NoiseSigma >= 0 && c.NoiseSigma <= 0.5) {
		return c, fmt.Errorf("fleet: noise sigma %.3f out of [0,0.5]", c.NoiseSigma)
	}
	if !(c.DeadDowntime >= 0 && c.DeadDowntime <= 1) {
		return c, fmt.Errorf("fleet: dead downtime %.3f out of [0,1]", c.DeadDowntime)
	}
	if !(c.DegradedDowntime >= 0 && c.DegradedDowntime <= c.DeadDowntime) {
		return c, fmt.Errorf("fleet: degraded downtime %.3f out of [0,%.3f] (dead downtime)", c.DegradedDowntime, c.DeadDowntime)
	}
	if c.WarmupDays < 0 || c.WarmupDays >= c.Days {
		return c, fmt.Errorf("fleet: warm-up %d days out of [0,%d)", c.WarmupDays, c.Days)
	}
	var wsum float64
	for _, m := range c.Mix {
		if m.Weight < 0 {
			return c, fmt.Errorf("fleet: negative mix weight")
		}
		wsum += m.Weight
	}
	if wsum <= 0 {
		return c, fmt.Errorf("fleet: climate mix has zero total weight")
	}
	if err := c.Harvest.Validate(); err != nil {
		return c, err
	}
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// mix64 is the splitmix64 finalizer — the per-node and per-site seed
// derivation. It is bijective and well-distributed, so consecutive node
// indices get decorrelated streams.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	siteStream = 0x736974650a0a0a0a // "site" stream tag
	nodeStream = 0x6e6f64650a0a0a0a // "node" stream tag
)

// siteSeed and nodeSeed derive the per-entity seeds from the master
// seed. Everything a node does depends only on these, never on the
// shard/worker layout.
func siteSeed(master int64, i int) uint64 {
	return mix64(mix64(uint64(master)^siteStream) + uint64(i)*0x9e3779b97f4a7c15)
}

func nodeSeed(master int64, i int) uint64 {
	return mix64(mix64(uint64(master)^nodeStream) + uint64(i)*0x9e3779b97f4a7c15)
}

// prng is a small deterministic generator (splitmix64 + Box-Muller) used
// per node so sampling a node's world allocates nothing.
//
// A Box-Muller pair yields two draws; the second waits as the spare.
// SkipNorm steps past a draw without evaluating it: the stream moves
// exactly as NormFloat64 would move it, and a pair SkipNorm opens keeps
// only its uniforms (a lazy spare), so r·sin is computed only if a later
// NormFloat64 consumes it.
type prng struct {
	s      uint64
	spare  float64 // r·sin of the open pair, when held == spareValue
	u1, u2 float64 // the open pair's uniforms, when held == spareLazy
	held   spareKind
}

// spareKind says what a prng holds of the second draw of an open pair.
type spareKind uint8

const (
	spareNone  spareKind = iota // no open pair
	spareValue                  // spare holds r·sin
	spareLazy                   // u1, u2 hold the pair, r·sin not yet computed
)

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	return mix64(p.s)
}

// Float64 returns a uniform draw in [0, 1).
func (p *prng) Float64() float64 { return float64(p.next()>>11) / (1 << 53) }

// uniforms draws a Box-Muller pair's (u1, u2), rejecting u1 == 0.
func (p *prng) uniforms() (u1, u2 float64) {
	u1 = p.Float64()
	for u1 == 0 {
		u1 = p.Float64()
	}
	return u1, p.Float64()
}

// NormFloat64 returns a standard normal draw (Box-Muller).
func (p *prng) NormFloat64() float64 {
	switch p.held {
	case spareValue:
		p.held = spareNone
		return p.spare
	case spareLazy:
		p.held = spareNone
		return math.Sqrt(-2*math.Log(p.u1)) * math.Sin(2*math.Pi*p.u2)
	}
	u1, u2 := p.uniforms()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	p.spare = r * sin
	p.held = spareValue
	return r * cos
}

// SkipNorm advances the stream past one NormFloat64 draw without
// evaluating it.
func (p *prng) SkipNorm() {
	if p.held != spareNone {
		p.held = spareNone
		return
	}
	p.u1, p.u2 = p.uniforms()
	p.held = spareLazy
}

// maxAbsNorm is the largest |z| NormFloat64 can return. u1 takes the
// values k·2⁻⁵³ with k ≥ 1, so −2·ln u1 peaks at u1 = 2⁻⁵³ (the next
// value, 2⁻⁵², is ln 2 away, far beyond Log's sub-ulp error), and
// |r·sin| and |r·cos| never exceed r. It is ≈ 8.5717.
var maxAbsNorm = math.Sqrt(-2 * math.Log(0x1p-53))

// noiseSkipExact reports whether a night slot's noise draw can be
// skipped without changing any bit: a zero reading times 1+σz keeps its
// sign only while 1+σz > 0 for every reachable z, i.e. σ below
// ≈ 1/8.5717. Float multiplication and addition round monotonically, so
// checking the extreme z = −maxAbsNorm covers every other z. Above the
// bound, +0·(1+σz) can be −0, which differs from +0 bitwise.
func noiseSkipExact(sigma float64) bool {
	return 1-sigma*maxAbsNorm > 0
}

// siteName keys a sampled site in the trace store. The master seed and
// the site's full provenance (count-independent index seed) are in the
// name, so two runs with different seeds sharing one store can never
// collide.
func siteName(master int64, i int) string {
	return fmt.Sprintf("fleet-%016x-%d", uint64(master), i)
}

// BuildSites samples the fleet's synthetic site set: climate (preset
// choice by mix weight, parameters by cloud.SampleClimate), geometry
// (mid-latitude spread) and generator seed, all from the master seed.
// The site set depends on (Seed, Sites, Days, ResolutionMinutes, Jitter,
// Mix) — not on Nodes — which is what lets a sweep share traces across
// fleet sizes.
func BuildSites(cfg Config) ([]dataset.Site, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	var wsum float64
	for _, m := range cfg.Mix {
		wsum += m.Weight
	}
	sites := make([]dataset.Site, cfg.Sites)
	for i := range sites {
		seed := siteSeed(cfg.Seed, i)
		rng := rand.New(rand.NewSource(int64(seed)))
		// Preset by weighted draw.
		pick := rng.Float64() * wsum
		base := cfg.Mix[len(cfg.Mix)-1].Climate
		var cum float64
		for _, m := range cfg.Mix {
			cum += m.Weight
			if pick < cum {
				base = m.Climate
				break
			}
		}
		climate, err := cloud.SampleClimate(base, rng, cfg.Jitter)
		if err != nil {
			return nil, err
		}
		lat := 32 + 10*rng.Float64()
		lon := -120 + 35*rng.Float64()
		sites[i] = dataset.Site{
			Name:              siteName(cfg.Seed, i),
			Location:          "fleet",
			ResolutionMinutes: cfg.ResolutionMinutes,
			Days:              cfg.Days,
			Geo: solar.Site{
				LatitudeDeg:   lat,
				LongitudeDeg:  lon,
				TimezoneHours: math.Round(lon / 15),
			},
			Climate: climate,
			Seed:    int64(mix64(seed ^ 0x7472616365)), // trace stream
		}
		if err := sites[i].Validate(); err != nil {
			return nil, fmt.Errorf("fleet: sampled site %d invalid: %w", i, err)
		}
	}
	return sites, nil
}

// NewStore builds the trace store for a site set: traces are generated
// on demand, deduplicated by single flight, and views come off the
// store's resolution pyramid like every other driver's.
func NewStore(sites []dataset.Site, n int) *expstore.Store {
	byName := make(map[string]dataset.Site, len(sites))
	for _, s := range sites {
		byName[s.Name] = s
	}
	return expstore.New(func(site string, days int) (*timeseries.Series, error) {
		s, ok := byName[site]
		if !ok {
			return nil, fmt.Errorf("fleet: unknown site %q", site)
		}
		return dataset.GenerateDays(s, days)
	}, []int{n})
}

// nodeWorld is a node's sampled configuration.
type nodeWorld struct {
	hw     harvest.Config
	params core.Params
	noise  prng
	sigma  float64
	// skipDark is noiseSkipExact(sigma): night readings skip their draw.
	skipDark bool
}

// observe returns the node's noisy reading of slot-start power start,
// taking one draw from the noise stream when sigma > 0. A zero reading
// stays zero under 1+σz > 0, so with skipDark it only steps the stream
// (SkipNorm); the reading and the stream position are bit for bit those
// of the full draw.
func (w *nodeWorld) observe(start float64) float64 {
	if !(w.sigma > 0) {
		return start
	}
	if start == 0 && w.skipDark {
		w.noise.SkipNorm()
		return start
	}
	obs := start * (1 + w.sigma*w.noise.NormFloat64())
	if obs < 0 {
		obs = 0
	}
	return obs
}

// sampleNode derives node i's world from the master seed alone.
func sampleNode(cfg *Config, i int) nodeWorld {
	p := prng{s: nodeSeed(cfg.Seed, i)}
	spread := cfg.HardwareSpread
	wobble := func() float64 { return 1 + spread*(2*p.Float64()-1) }

	hw := cfg.Harvest
	hw.Panel.AreaM2 *= wobble()
	hw.StorageCapacityJ *= wobble()
	hw.Load.ActiveW *= wobble()
	hw.InitialFraction = clamp(hw.InitialFraction*wobble(), 0.05, 1)

	params := cfg.Params
	params.Alpha = clamp(params.Alpha*wobble(), 0, 1)
	d := int(math.Round(float64(params.D) * wobble()))
	if d < 1 {
		d = 1
	}
	params.D = d
	k := params.K + int(p.Float64()*3) - 1
	if k < 1 {
		k = 1
	}
	if k > cfg.N {
		k = cfg.N
	}
	params.K = k

	// The noise stream continues from the same generator, so hardware
	// sampling and measurement noise are one per-node stream.
	return nodeWorld{hw: hw, params: params, noise: p, sigma: cfg.NoiseSigma, skipDark: noiseSkipExact(cfg.NoiseSigma)}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RunNode simulates virtual node i against its site's slotted trace and
// returns the per-node result. threshold is the site's absolute ROI
// threshold for error scoring. The outcome is a pure function of
// (cfg.Seed, i, view) — workers, shards and scheduling cannot affect it.
//
// Night slots (view.Start[t] == 0) skip their noise draw while
// cfg.NoiseSigma is below noiseSkipExact's bound (≈ 0.1167; the default is
// 0.02): a zero reading times 1+σz is that same zero for every reachable
// z there, so only the stream position matters, and SkipNorm keeps it.
// Above the bound every slot takes the full draw.
func RunNode(cfg *Config, i int, view *timeseries.SlotView, threshold float64) (NodeResult, error) {
	w := sampleNode(cfg, i)
	pred, err := core.New(cfg.N, w.params)
	if err != nil {
		return NodeResult{}, fmt.Errorf("fleet: node %d predictor: %w", i, err)
	}
	sim, err := harvest.NewSim(w.hw, cfg.N)
	if err != nil {
		return NodeResult{}, fmt.Errorf("fleet: node %d hardware: %w", i, err)
	}
	acc, err := metrics.MakeAccumulator(threshold)
	if err != nil {
		return NodeResult{}, err
	}
	warmupSlots := cfg.WarmupDays * cfg.N
	total := view.TotalSlots()
	// j is t's slot of the day; a wrapping counter saves a per-slot
	// integer division.
	j := 0
	for t := 0; t < total; t++ {
		if err := pred.Observe(j, w.observe(view.Start[t])); err != nil {
			return NodeResult{}, err
		}
		forecast, err := pred.Predict()
		if err != nil {
			return NodeResult{}, err
		}
		mean := view.Mean[t]
		sim.Step(forecast, mean)
		if t >= warmupSlots {
			acc.Add(forecast, mean)
		}
		if j++; j == view.N {
			j = 0
		}
	}
	res := sim.Result()
	nr := NodeResult{
		HarvestedJ:    res.HarvestedJ,
		ConsumedJ:     res.ConsumedJ,
		WastedJ:       res.WastedJ,
		DownSlots:     res.DownSlots,
		Slots:         res.Slots,
		MeanDuty:      res.MeanDuty,
		FinalFraction: res.FinalFraction,
		MAPE:          acc.MAPE() * 100,
		Scored:        acc.N(),
	}
	down := res.Downtime()
	nr.Dead = down >= cfg.DeadDowntime
	nr.Degraded = !nr.Dead && down >= cfg.DegradedDowntime
	return nr, nil
}

// RunResult wraps a fleet Summary with the run's shape and throughput —
// the one-JSON-per-sweep-point artifact.
type RunResult struct {
	Nodes     int   `json:"nodes"`
	Sites     int   `json:"sites"`
	Shards    int   `json:"shards"`
	Workers   int   `json:"workers"`
	Days      int   `json:"days"`
	N         int   `json:"n"`
	Seed      int64 `json:"seed"`
	NodeSlots int64 `json:"node_slots"`

	Summary Summary `json:"summary"`

	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	NodesPerSec     float64 `json:"nodes_per_sec"`
	NodeSlotsPerSec float64 `json:"node_slots_per_sec"`
	NsPerNodeSlot   float64 `json:"ns_per_node_slot"`
	// MemSysBytes is the Go runtime's total OS memory footprint after the
	// run — the number the CI smoke job bounds to prove O(shards) memory.
	MemSysBytes uint64 `json:"mem_sys_bytes"`
}

// Run executes one fleet simulation: sample sites, resolve their views
// (in parallel, deduplicated by the store), fan shards out over the
// worker pool, fold per-shard aggregates, merge, summarise.
func Run(cfg Config) (*RunResult, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	sites, err := BuildSites(cfg)
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewStore(sites, cfg.N)
	}
	start := time.Now()

	// Phase 0: resolve every site's view and ROI threshold up front so
	// shard workers only ever hit warm cache. Trace generation is the
	// per-site heavy step; the pool parallelises it across sites.
	views := make([]*timeseries.SlotView, len(sites))
	thresholds := make([]float64, len(sites))
	if err := parallelFor(cfg.Workers, len(sites), func(i int) error {
		v, err := store.View(sites[i].Name, cfg.Days, cfg.N)
		if err != nil {
			return err
		}
		views[i] = v
		thresholds[i] = metrics.PeakThreshold(v.PeakMean(), metrics.DefaultROIFraction)
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 1: shards over the worker pool. Shard s owns the contiguous
	// node range [s·Nodes/Shards, (s+1)·Nodes/Shards).
	aggs := make([]*ShardAgg, cfg.Shards)
	if err := parallelFor(cfg.Workers, cfg.Shards, func(s int) error {
		lo := s * cfg.Nodes / cfg.Shards
		hi := (s + 1) * cfg.Nodes / cfg.Shards
		agg := NewShardAgg()
		for i := lo; i < hi; i++ {
			site := i % cfg.Sites
			nr, err := RunNode(&cfg, i, views[site], thresholds[site])
			if err != nil {
				return err
			}
			agg.AddNode(&nr)
		}
		aggs[s] = agg
		return nil
	}); err != nil {
		return nil, err
	}

	// Merge in shard order (the merge is exact, so any order would give
	// the same bits; fixed order keeps the intent obvious).
	merged := NewShardAgg()
	for _, a := range aggs {
		merged.Merge(a)
	}
	elapsed := time.Since(start)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := &RunResult{
		Nodes:          cfg.Nodes,
		Sites:          cfg.Sites,
		Shards:         cfg.Shards,
		Workers:        cfg.Workers,
		Days:           cfg.Days,
		N:              cfg.N,
		Seed:           cfg.Seed,
		NodeSlots:      int64(cfg.Nodes) * int64(cfg.Days) * int64(cfg.N),
		Summary:        merged.Summary(),
		ElapsedSeconds: elapsed.Seconds(),
		MemSysBytes:    ms.Sys,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.NodesPerSec = float64(cfg.Nodes) / sec
		res.NodeSlotsPerSec = float64(res.NodeSlots) / sec
		res.NsPerNodeSlot = float64(elapsed.Nanoseconds()) / float64(res.NodeSlots)
	}
	return res, nil
}

// Sweep runs one fleet per size from a single config, sharing one trace
// store across the points so each sampled climate generates exactly
// once. Results come back in sweep order.
func Sweep(cfg Config, sizes []int) ([]*RunResult, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("fleet: empty sweep")
	}
	if norm.Store == nil {
		sites, err := BuildSites(norm)
		if err != nil {
			return nil, err
		}
		norm.Store = NewStore(sites, norm.N)
	}
	out := make([]*RunResult, 0, len(sizes))
	for _, size := range sizes {
		pt := norm
		pt.Nodes = size
		r, err := Run(pt)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep point %d nodes: %w", size, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// parallelFor runs fn(0..n-1) on a fixed-size pool and returns the first
// error.
func parallelFor(workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				if errs[w] != nil {
					continue // drain after failure
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
