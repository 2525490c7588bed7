package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/expstore"
	"solarpred/internal/fleet"
	"solarpred/internal/harvest"
	"solarpred/internal/metrics"
	"solarpred/internal/timeseries"
)

// fleetSummaryDigest pins the sha256 of the fleet-20k summary JSON
// (fleet.DefaultConfig(20000), seed 1). Any change to node simulation,
// aggregation or summary encoding moves it.
const fleetSummaryDigest = "226cfac3cd4870ac8dec602c2c4ed0c8b41c637cb33c705326050ac75a0b61aa"

const fleetNodes = 20000

func fleetConfig(workers int) fleet.Config {
	cfg := fleet.DefaultConfig(fleetNodes)
	cfg.Workers = workers
	return cfg
}

// fleetWorld is the fleet's set-up: sampled sites and a store whose views
// are all resolved.
type fleetWorld struct {
	store      *expstore.Store
	views      []*timeseries.SlotView
	thresholds []float64
	sitesDur   time.Duration
	tracesDur  time.Duration
}

// setUpFleet samples the site set and generates every site's trace and
// view, spread over workers goroutines.
func setUpFleet(cfg fleet.Config, workers int) (*fleetWorld, error) {
	start := time.Now()
	sites, err := fleet.BuildSites(cfg)
	if err != nil {
		return nil, err
	}
	w := &fleetWorld{sitesDur: time.Since(start)}
	start = time.Now()
	w.store = fleet.NewStore(sites, cfg.N)
	w.views = make([]*timeseries.SlotView, len(sites))
	w.thresholds = make([]float64, len(sites))
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sites); i += workers {
				v, err := w.store.View(sites[i].Name, cfg.Days, cfg.N)
				if err != nil {
					errs[i] = err
					continue
				}
				w.views[i] = v
				w.thresholds[i] = metrics.PeakThreshold(v.PeakMean(), metrics.DefaultROIFraction)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w.tracesDur = time.Since(start)
	return w, nil
}

func summaryDigest(s fleet.Summary) (string, []byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b, nil
}

// runFleet runs one fleet.Run over the world's store, checks its summary
// against the pinned digest and returns the wall time and summary bytes.
func runFleet(rep *report, w *fleetWorld, workers int) (time.Duration, []byte, error) {
	cfg := fleetConfig(workers)
	cfg.Store = w.store
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	rep.attempted++
	digest, b, err := summaryDigest(res.Summary)
	if err != nil {
		return 0, nil, err
	}
	if digest != fleetSummaryDigest {
		rep.fail("fleet summary digest %s (workers %d), want %s", digest, workers, fleetSummaryDigest)
	}
	return wall, b, nil
}

func fleet20k(e *env) (*report, error) {
	if e.trace {
		return fleetTraced(e)
	}
	rep := newReport()
	cfg := fleetConfig(e.nproc)
	var setups []float64
	var w *fleetWorld
	for i := 0; i < 9; i++ {
		var err error
		start := time.Now()
		if w, err = setUpFleet(cfg, e.nproc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var walls []float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start)+time.Duration(median(walls)*1e6) <= e.seconds {
		wall, _, err := runFleet(rep, w, e.nproc)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(wall))
	}
	rss, err := selfPeakRSSMiB()
	if err != nil {
		return nil, err
	}
	nodeSlots := float64(fleetNodes * cfg.Days * cfg.N)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["latency_p50_ms"] = median(walls)
	rep.metrics["latency_p90_ms"] = percentile(walls, 90)
	rep.metrics["throughput_per_s"] = nodeSlots / (median(walls) / 1e3)
	rep.metrics["peak_rss_mib"] = rss
	return rep, nil
}

// fleetProbeStride picks the node sample the component probes replay;
// it is coprime with the 64 sites so every site is sampled.
const fleetProbeStride = 17

// fleetTraced splits a node-slot into its layers. fleet.Run at one
// worker is the untraced reference; the benchmark then folds the same
// fleet itself on one goroutine, timing RunNode and ShardAgg.AddNode per
// node, and replays the predictor, harvest step and error accumulator
// of a node sample on their own to split RunNode.
func fleetTraced(e *env) (*report, error) {
	rep := newReport()
	tr := newTracer()
	cfg := fleetConfig(1)
	setupStart := time.Now()
	w, err := setUpFleet(cfg, e.nproc)
	if err != nil {
		return nil, err
	}
	setupSpan := tr.record(0, 0, "fleet.setup", setupStart, time.Now())
	tr.record(0, setupSpan, "fleet.setup.sites", setupStart, setupStart.Add(w.sitesDur))
	tr.record(0, setupSpan, "fleet.setup.traces", setupStart.Add(w.sitesDur), setupStart.Add(w.sitesDur+w.tracesDur))

	wall1, sum1, err := runFleet(rep, w, 1)
	if err != nil {
		return nil, err
	}
	wallN, sumN, err := runFleet(rep, w, e.nproc)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if string(sum1) != string(sumN) {
		rep.fail("fleet summary differs between 1 and %d workers", e.nproc)
	}

	// Traced fold over the same contiguous shard layout fleet.Run uses at
	// one worker.
	cfg.Shards = 4
	slotsPerNode := int64(cfg.Days * cfg.N)
	sketch := fleet.NewSketch()
	aggs := make([]*fleet.ShardAgg, cfg.Shards)
	var nodeNs, aggNs, sampleNodeNs int64
	sampleNodes := 0
	foldStart := time.Now()
	root := tr.record(1, 0, "fleet.run", foldStart, foldStart) // end set below
	nodeSpan := make(map[int]int)
	for s := 0; s < cfg.Shards; s++ {
		aggs[s] = fleet.NewShardAgg()
		for i := s * fleetNodes / cfg.Shards; i < (s+1)*fleetNodes/cfg.Shards; i++ {
			site := i % cfg.Sites
			t0 := time.Now()
			nr, err := fleet.RunNode(&cfg, i, w.views[site], w.thresholds[site])
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			aggs[s].AddNode(&nr)
			t2 := time.Now()
			id := tr.record(1, root, "fleet.node", t0, t1)
			tr.record(1, root, "fleet.agg", t1, t2)
			nodeNs += t1.Sub(t0).Nanoseconds()
			aggNs += t2.Sub(t1).Nanoseconds()
			if i%fleetProbeStride == 0 {
				nodeSpan[i] = id
				sampleNodeNs += t1.Sub(t0).Nanoseconds()
				sampleNodes++
			}
			if nr.Scored > 0 {
				sketch.Add(nr.MAPE)
			}
		}
	}
	mergeStart := time.Now()
	merged := fleet.NewShardAgg()
	for _, a := range aggs {
		merged.Merge(a)
	}
	summary := merged.Summary()
	foldEnd := time.Now()
	tr.record(1, root, "fleet.merge", mergeStart, foldEnd)
	tr.spans[root-1].End = foldEnd.Sub(tr.origin).Nanoseconds()
	rep.attempted++
	if _, b, err := summaryDigest(summary); err != nil {
		return nil, err
	} else if string(b) != string(sum1) {
		rep.fail("traced fold summary differs from fleet.Run's")
	}

	// Component replays over the node sample.
	var coreNs, stepNs, accNs int64
	preds := make([]float64, slotsPerNode)
	for i := 0; i < fleetNodes; i += fleetProbeStride {
		v, th := w.views[i%cfg.Sites], w.thresholds[i%cfg.Sites]
		t0 := time.Now()
		if err := replayPredictor(cfg, v, preds); err != nil {
			return nil, err
		}
		t1 := time.Now()
		sim, err := harvest.NewSim(cfg.Harvest, cfg.N)
		if err != nil {
			return nil, err
		}
		for t, p := range preds {
			sim.Step(p, v.Mean[t])
		}
		t2 := time.Now()
		acc, err := metrics.MakeAccumulator(th)
		if err != nil {
			return nil, err
		}
		for t := cfg.WarmupDays * cfg.N; t < len(preds); t++ {
			acc.Add(preds[t], v.Mean[t])
		}
		t3 := time.Now()
		parent := nodeSpan[i]
		tr.record(2, parent, "core.predict", t0, t1)
		tr.record(2, parent, "harvest.step", t1, t2)
		tr.record(2, parent, "metrics.acc", t2, t3)
		coreNs += t1.Sub(t0).Nanoseconds()
		stepNs += t2.Sub(t1).Nanoseconds()
		accNs += t3.Sub(t2).Nanoseconds()
	}

	nodeSlots := float64(int64(fleetNodes) * slotsPerNode)
	sampleSlots := float64(int64(sampleNodes) * slotsPerNode)
	e2e := float64(foldEnd.Sub(foldStart).Nanoseconds()) / nodeSlots
	node := float64(sampleNodeNs) / sampleSlots
	perSlot := func(ns int64) float64 { return float64(ns) / sampleSlots }
	m := rep.metrics
	m["fleet.setup.sites_ms"] = ms(w.sitesDur)
	m["fleet.setup.traces_s"] = w.tracesDur.Seconds()
	m["fleet.traced_e2e_ns_per_slot"] = e2e
	m["fleet.node_ns_per_slot"] = float64(nodeNs) / nodeSlots
	m["core.predict_ns_per_slot"] = perSlot(coreNs)
	m["harvest.step_ns_per_slot"] = perSlot(stepNs)
	m["metrics.acc_ns_per_slot"] = perSlot(accNs)
	m["fleet.glue_ns_per_slot"] = node - perSlot(coreNs) - perSlot(stepNs) - perSlot(accNs)
	m["fleet.agg_ns_per_node"] = float64(aggNs) / fleetNodes
	m["fleet.merge_us"] = float64(foldEnd.Sub(mergeStart).Nanoseconds()) / 1e3
	attributed := node + float64(aggNs)/nodeSlots + float64(foldEnd.Sub(mergeStart).Nanoseconds())/nodeSlots
	m["fleet.unattributed_ns_per_slot"] = e2e - attributed
	m["fleet.parallel_eff"] = wall1.Seconds() / wallN.Seconds() / float64(e.nproc)
	m["fleet.sketch_buckets"] = float64(sketch.Buckets())
	m["trace.overhead_pct"] = (foldEnd.Sub(foldStart).Seconds() - wall1.Seconds()) / wall1.Seconds() * 100
	rep.attempted++
	if diff := e2e - attributed; diff > 0.1*e2e || diff < -0.1*e2e {
		rep.fail("fleet node-slot layers sum to %.1f ns, traced end to end %.1f ns: outside 10%%", attributed, e2e)
	}
	rep.spans = tr.spans
	return rep, nil
}

// replayPredictor runs a WCMA predictor with the fleet's base parameters
// over a view, writing each slot's next-slot prediction into preds.
func replayPredictor(cfg fleet.Config, v *timeseries.SlotView, preds []float64) error {
	p, err := core.New(cfg.N, cfg.Params)
	if err != nil {
		return err
	}
	for t := range preds {
		if err := p.Observe(t%cfg.N, v.Start[t]); err != nil {
			return err
		}
		if preds[t], err = p.Predict(); err != nil {
			return err
		}
	}
	return nil
}
