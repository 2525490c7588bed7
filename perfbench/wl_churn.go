package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/optimize"
	"solarpred/internal/serve"
)

// forecast-churn: forecasts over a tuple space too large to stay warm,
// with Zipf popularity, a tenth grid and tune queries, and cache resets.
// Latency phases send the forecasts alone.
var (
	churnAlphas = []float64{0.3, 0.5, 0.7, 0.9}
	churnDs     = []int{2, 5, 10, 20}
	churnKs     = []int{1, 2, 3, 4}
	churnGridNs = []int{96, 48, 24}
	churnSpaces = []optimize.Space{
		{Alphas: []float64{0.3, 0.5, 0.7}, Ds: []int{2, 5, 10}, Ks: []int{1, 2, 3}},
		{Alphas: []float64{0.5, 0.7, 0.9}, Ds: []int{5, 10, 20}, Ks: []int{1, 2, 4}},
	}
	churnLadder = []float64{300, 500, 800, 1100, 1500, 2000, 2600, 3300, 4200, 5200}
)

// A reset makes every site's trace regenerate, which stalls the daemon
// for about half a second on a 2-CPU host. A capacity slice opens with
// one, timed; open-loop slices and ladder rungs open with one untimed. A
// capacity slice is sized at churnCapacityRPS for its nominal length,
// about what a 2-CPU host completes.
const (
	churnNominalRPS  = 200.0
	churnLimitMs     = 50.0
	churnCapacityRPS = 1500.0
	churnSampleEvery = 16 // one forecast in this many is checked
	// With this head about a fifth of the forecasts in a phase are cold,
	// so the median sits among warm requests and the p90 among cold
	// replays rather than in the gap between them.
	churnZipfS = 1.3
)

type churnKind int

const (
	opForecast churnKind = iota
	opGrid
	opTune
	opReset
)

// churnOp is one scheduled operation.
type churnOp struct {
	kind  churnKind
	tuple int // index into forecasts or grids
	url   string
	check bool
}

type gridTuple struct {
	site  string
	n     int
	space int
}

func (g gridTuple) query(space optimize.Space) string {
	return fmt.Sprintf("site=%s&n=%d&alphas=%s&ds=%s&ks=%s", g.site, g.n,
		floatList(space.Alphas), intList(space.Ds), intList(space.Ks))
}

func floatList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fkey(x)
	}
	return s
}

func intList(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s
}

// churnSpace is the workload's tuple universe with a seeded popularity
// order.
type churnSpace struct {
	forecasts []*forecastTuple // want filled in lazily by the checks
	grids     []gridTuple
	rank      []int // popularity rank → forecast tuple
}

func newChurnSpace(sites []string, seed int64) *churnSpace {
	cs := &churnSpace{}
	for _, site := range sites {
		for _, n := range sampleNs {
			for _, a := range churnAlphas {
				for _, d := range churnDs {
					for _, k := range churnKs {
						p := core.Params{Alpha: a, D: d, K: k}
						h := 1 + len(cs.forecasts)%4
						cs.forecasts = append(cs.forecasts, &forecastTuple{
							site: site, n: n, h: h, params: p, url: forecastURL(site, n, h, &p),
						})
					}
				}
			}
		}
		for _, n := range churnGridNs {
			for s := range churnSpaces {
				cs.grids = append(cs.grids, gridTuple{site, n, s})
			}
		}
	}
	// Popularity rank r falls on the (site, N) pair r mod pairs, so the
	// cost mix of the popular head (a 1-minute site at N=288 replays ten
	// times slower than a 5-minute one at N=24) is the same for every
	// seed; the seed only shuffles parameters within each pair.
	pairs := len(sites) * len(sampleNs)
	per := len(cs.forecasts) / pairs
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, pairs)
	for p := range perms {
		perms[p] = rng.Perm(per)
	}
	cs.rank = make([]int, len(cs.forecasts))
	for r := range cs.rank {
		p := r % pairs
		cs.rank[r] = p*per + perms[p][r/pairs]
	}
	return cs
}

// schedule draws a phase of Poisson arrivals at rate. A mixed phase
// opens with a reset at time 0 and draws each operation by draw; any
// other is Zipf-popular forecasts only.
func (cs *churnSpace) schedule(rng *rand.Rand, rate float64, dur time.Duration, mixed bool) ([]time.Duration, []churnOp) {
	due := poissonSchedule(rng, rate, dur)
	if mixed {
		due = append([]time.Duration{0}, due...)
	}
	zipf := cs.zipf(rng)
	ops := make([]churnOp, 0, len(due))
	for i := range due {
		switch {
		case mixed && i == 0:
			ops = append(ops, churnOp{kind: opReset, url: "/v1/reset"})
		case mixed:
			ops = append(ops, cs.draw(rng, zipf))
		default:
			ops = append(ops, cs.forecast(rng, zipf))
		}
	}
	return due, ops
}

// sequence draws n operations for a closed loop, the first a reset.
func (cs *churnSpace) sequence(rng *rand.Rand, n int) []churnOp {
	zipf := cs.zipf(rng)
	ops := make([]churnOp, n)
	ops[0] = churnOp{kind: opReset, url: "/v1/reset"}
	for i := 1; i < n; i++ {
		ops[i] = cs.draw(rng, zipf)
	}
	return ops
}

func (cs *churnSpace) zipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, churnZipfS, 1, uint64(len(cs.forecasts)-1))
}

// draw picks one operation: nine in ten a Zipf-popular forecast, else a
// grid or tune query.
func (cs *churnSpace) draw(rng *rand.Rand, zipf *rand.Zipf) churnOp {
	var op churnOp
	switch u := rng.Float64(); {
	case u < 0.05:
		op.kind, op.tuple = opGrid, rng.Intn(len(cs.grids))
		g := cs.grids[op.tuple]
		op.url, op.check = "/v1/grid?"+g.query(churnSpaces[g.space]), true
	case u < 0.10:
		op.kind, op.tuple = opTune, rng.Intn(len(cs.grids))
		g := cs.grids[op.tuple]
		op.url, op.check = "/v1/tune?"+g.query(churnSpaces[g.space]), true
	default:
		op = cs.forecast(rng, zipf)
	}
	return op
}

// forecast picks a Zipf-popular forecast, checked one time in
// churnSampleEvery.
func (cs *churnSpace) forecast(rng *rand.Rand, zipf *rand.Zipf) churnOp {
	t := cs.rank[zipf.Uint64()]
	return churnOp{kind: opForecast, tuple: t, url: cs.forecasts[t].url, check: rng.Intn(churnSampleEvery) == 0}
}

// churnLog keeps the bodies of checked operations for the checks made
// after the timed phases.
type churnLog struct {
	mu     sync.Mutex
	ops    []churnOp
	bodies [][]byte
}

func (l *churnLog) keep(op churnOp, body []byte) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.bodies = append(l.bodies, body)
	l.mu.Unlock()
}

// churnPhase runs a churn schedule, mixed or forecasts only, against the
// daemon. beforeReset, if set, runs inside the reset operation just
// before the POST.
func churnPhase(e *env, c *http.Client, d *daemon, cs *churnSpace, log *churnLog, mixed bool, beforeReset func() error) func(*rand.Rand, float64, time.Duration) ([]outcome, int, bool) {
	return func(rng *rand.Rand, rate float64, dur time.Duration) ([]outcome, int, bool) {
		due, ops := cs.schedule(rng, rate, dur, mixed)
		outs, aborted := openLoop(due, e.nproc, maxLagFor(churnLimitMs), func(i int) error {
			return sendChurn(c, d, log, ops[i], beforeReset)
		})
		return outs, len(due), aborted
	}
}

// sendChurn sends one operation and keeps its body if it is to be
// checked.
func sendChurn(c *http.Client, d *daemon, log *churnLog, op churnOp, beforeReset func() error) error {
	method := http.MethodGet
	if op.kind == opReset {
		method = http.MethodPost
		if beforeReset != nil {
			if err := beforeReset(); err != nil {
				return err
			}
		}
	}
	body, err := fetch(c, method, d.base+op.url)
	if err != nil {
		return fmt.Errorf("%s: %w", op.url, err)
	}
	if op.check {
		log.keep(op, body)
	}
	return nil
}

// warmChurn fetches one guideline forecast per site, so every site's
// trace and view pyramid exist before timing.
func warmChurn(rep *report, c *http.Client, sites []string) func(*daemon) error {
	return func(d *daemon) error {
		for _, site := range sites {
			if _, err := fetch(c, http.MethodGet, d.base+forecastURL(site, 48, 1, nil)); err != nil {
				return fmt.Errorf("warm-up %s: %w", site, err)
			}
			rep.attempted++
		}
		return nil
	}
}

// resetChurn flushes the daemon's store and published predictors, then
// regenerates every site's trace.
func resetChurn(rep *report, c *http.Client, d *daemon, sites []string) error {
	if _, err := fetch(c, http.MethodPost, d.base+"/v1/reset"); err != nil {
		return fmt.Errorf("reset: %w", err)
	}
	rep.attempted++
	return warmChurn(rep, c, sites)(d)
}

// checkChurn recomputes every kept response on the benchmark's own
// store: forecasts by direct guarded replay, grid and tune answers by
// direct Store.Grid.
func checkChurn(rep *report, u *universe, cs *churnSpace, log *churnLog) error {
	grids := make(map[int]*optimize.SearchResult)
	gridFor := func(i int) (*optimize.SearchResult, error) {
		if r, ok := grids[i]; ok {
			return r, nil
		}
		g := cs.grids[i]
		r, err := u.store.Grid(g.site, u.cfg.Days, g.n, u.cfg.EvalOptions(), churnSpaces[g.space], optimize.RefSlotMean)
		grids[i] = r
		return r, err
	}
	for i, op := range log.ops {
		body := log.bodies[i]
		switch op.kind {
		case opForecast:
			t := cs.forecasts[op.tuple]
			if t.want == nil {
				g, err := replay(u.store, u.cfg.Days, t.site, t.n, t.params)
				if err != nil {
					return err
				}
				f, err := g.Forecast(t.h)
				if err != nil {
					return err
				}
				t.want = f.Watts
			}
			if err := checkForecast(body, t); err != nil {
				rep.fail("%v", err)
			}
		case opGrid:
			want, err := gridFor(op.tuple)
			if err != nil {
				return err
			}
			var got serve.GridResult
			if err := json.Unmarshal(body, &got); err != nil {
				rep.fail("%s: %v", op.url, err)
				continue
			}
			ok := len(got.Cells) == len(want.Cells) && sameCell(got.Best, want.Best)
			for j := 0; ok && j < len(want.Cells); j++ {
				ok = sameCell(got.Cells[j], want.Cells[j])
			}
			if !ok {
				rep.fail("%s: cells differ from direct Store.Grid", op.url)
			}
		case opTune:
			want, err := gridFor(op.tuple)
			if err != nil {
				return err
			}
			var got serve.TuneResult
			if err := json.Unmarshal(body, &got); err != nil {
				rep.fail("%s: %v", op.url, err)
				continue
			}
			k2, hasK2 := want.MinForK(2)
			if !sameCell(got.Best, want.Best) || (got.BestAtK2 != nil) != hasK2 || (hasK2 && !sameCell(*got.BestAtK2, k2)) {
				rep.fail("%s: optimum differs from direct Store.Grid", op.url)
			}
		}
	}
	return nil
}

func sameCell(got serve.CellResult, want optimize.Cell) bool {
	r := want.Report
	return math.Float64bits(got.Alpha) == math.Float64bits(want.Params.Alpha) &&
		got.D == want.Params.D && got.K == want.Params.K &&
		math.Float64bits(got.MAPE) == math.Float64bits(r.MAPE) &&
		math.Float64bits(got.RMSE) == math.Float64bits(r.RMSE) &&
		math.Float64bits(got.MaxAbsErr) == math.Float64bits(r.MaxAbsErr) &&
		got.Samples == r.Samples
}

func forecastChurn(e *env) (*report, error) {
	rep := newReport()
	sites := experiments.DefaultConfig().Sites
	cs := newChurnSpace(sites, e.seed)
	c := newHTTPClient(e.nproc)
	if e.trace {
		return churnTraced(e, rep, c, cs)
	}
	d, setups, err := setUpDaemons(e, c, warmChurn(rep, c, sites))
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	log := &churnLog{}
	// Every open-loop slice starts after an untimed reset and re-warm of
	// the sites' traces: a regeneration stall inside it would hold up a
	// share of its requests that varies from run to run, right at the
	// p90. Each slice then starts from the same state, every tuple cold.
	// The slices send forecasts only: a grid miss holds a connection for
	// 13–100 ms, and how many requests queue behind one depends on how
	// arrivals fall, which moved the p90 by a quarter between seeds. The
	// capacity slices carry the grid and tune queries.
	prepare := func() error { return resetChurn(rep, c, d, sites) }
	p50, p90, throughput, err := runSlices(e, rep, "forecast-churn", churnNominalRPS, prepare,
		churnPhase(e, c, d, cs, log, false, nil), churnCapacity(e, c, d, cs, log))
	if err != nil {
		return nil, err
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	u, err := newUniverse(e.nproc)
	if err != nil {
		return nil, err
	}
	if err := checkChurn(rep, u, cs, log); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["latency_p50_ms"] = p50
	rep.metrics["latency_p90_ms"] = p90
	rep.metrics["throughput_per_s"] = throughput
	rep.metrics["peak_rss_mib"] = rss
	return rep, nil
}

// churnCapacity sends a fixed seeded sequence, opened by a reset, back to
// back from nproc connections. The work is fixed rather than the time:
// the reset's regeneration, grid misses and cold replays come first, so
// a time-boxed slice would give a slower host less of the cheap warm
// tail and amplify its slowness.
func churnCapacity(e *env, c *http.Client, d *daemon, cs *churnSpace, log *churnLog) func(*rand.Rand, time.Duration) ([]outcome, time.Duration) {
	return func(rng *rand.Rand, dur time.Duration) ([]outcome, time.Duration) {
		ops := cs.sequence(rng, int(dur.Seconds()*churnCapacityRPS))
		return closedLoop(len(ops), e.nproc, 10*dur, func(i int) error {
			return sendChurn(c, d, log, ops[i], nil)
		})
	}
}

// churnTraced runs a short churn phase for the daemon's own counters and
// the rate ladder, then times the cold path in process: after
// Service.Reset, the view
// miss (trace generation and pyramid), a cold Service.Forecast, and on
// their own the guard replay, Guard.Forecast and view hit it contains —
// the rest of the cold forecast is batcher and service overhead — and a
// Store.Grid miss per N.
func churnTraced(e *env, rep *report, c *http.Client, cs *churnSpace) (*report, error) {
	sites := experiments.DefaultConfig().Sites
	d, _, err := setUpDaemonOnce(e, c, warmChurn(rep, c, sites))
	if err != nil {
		return nil, err
	}
	defer d.kill()
	start, err := d.stats(c)
	if err != nil {
		return nil, err
	}
	var storeSum expstore.Stats
	base := start.Store
	var statsMu sync.Mutex
	beforeReset := func() error {
		st, err := d.stats(c)
		if err != nil {
			return err
		}
		statsMu.Lock()
		storeSum = addStats(storeSum, st.Store.Sub(base))
		base = expstore.Stats{}
		statsMu.Unlock()
		return nil
	}
	log := &churnLog{}
	outs, scheduled, aborted := churnPhase(e, c, d, cs, log, true, beforeReset)(rand.New(rand.NewSource(e.seed)), churnNominalRPS, e.seconds/3)
	rep.tally(outs)
	nominal := summarise(churnNominalRPS, scheduled, outs, aborted, nominalLagMs)
	if nominal.LagGrowing {
		rep.fail("generator lag grew at the nominal %.0f/s", churnNominalRPS)
	}
	end, err := d.stats(c)
	if err != nil {
		return nil, err
	}
	slo, err := runLadder(e, rep, "forecast-churn", churnLadder, e.seconds/3/time.Duration(len(churnLadder)), churnLimitMs,
		func() error { return resetChurn(rep, c, d, sites) }, churnPhase(e, c, d, cs, log, false, nil))
	if err != nil {
		return nil, err
	}
	storeSum = addStats(storeSum, end.Store.Sub(base))
	m := rep.metrics
	m["loadgen.lag_p99_ms"] = nominal.LagP99Ms
	m["loadgen.slo_rps"] = slo
	ratio := func(c expstore.Counter) float64 {
		if c.Hits+c.Misses == 0 {
			return 0
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	m["expstore.hit_ratio.series"] = ratio(storeSum.Series)
	m["expstore.hit_ratio.view"] = ratio(storeSum.View)
	m["expstore.hit_ratio.eval"] = ratio(storeSum.Eval)
	m["expstore.hit_ratio.grid"] = ratio(storeSum.Grid)
	comps := float64(end.Batcher.Computations - start.Batcher.Computations)
	coal := float64(end.Batcher.Coalesced - start.Batcher.Coalesced)
	m["batcher.computations"] = comps
	if comps+coal > 0 {
		m["batcher.coalesce_ratio"] = coal / (comps + coal)
	}
	m["batcher.abandoned"] = float64(end.Batcher.Abandoned - start.Batcher.Abandoned)
	m["serve.store_entries"] = float64(end.StoreEntries)
	var shed, opens uint64
	for name, ep := range end.Endpoints {
		shed += ep.Shed - start.Endpoints[name].Shed
	}
	for class, b := range end.Breakers {
		opens += b.Opens - start.Breakers[class].Opens
	}
	m["serve.shed"] = float64(shed)
	m["serve.breaker_open"] = float64(opens)

	if err := coldProbes(rep, e); err != nil {
		return nil, err
	}
	u, err := newUniverse(e.nproc)
	if err != nil {
		return nil, err
	}
	if err := checkChurn(rep, u, cs, log); err != nil {
		return nil, err
	}
	return rep, nil
}

func addStats(a, b expstore.Stats) expstore.Stats {
	add := func(x, y expstore.Counter) expstore.Counter {
		return expstore.Counter{Hits: x.Hits + y.Hits, Misses: x.Misses + y.Misses}
	}
	return expstore.Stats{Series: add(a.Series, b.Series), View: add(a.View, b.View), Eval: add(a.Eval, b.Eval), Grid: add(a.Grid, b.Grid)}
}

// coldProbeSites are one 5-minute and one 1-minute site.
var coldProbeSites = []string{"SPMD", "ORNL"}

// coldProbes times the cold path layer by layer on an in-process
// Service. Each (site, N) is measured twice after a reset: once bare
// and once traced, for the overhead.
func coldProbes(rep *report, e *env) error {
	cfg := experiments.DefaultConfig()
	svc, err := serve.New(serve.Config{Exp: cfg})
	if err != nil {
		return err
	}
	defer svc.Close()
	store := svc.Store()
	tr := newTracer()
	var viewMiss, bare, traced, wait []float64
	cold := make(map[int][]float64)
	replays := make(map[int][]float64)
	grids := make(map[int][]float64)
	req := 0
	for _, site := range coldProbeSites {
		for _, n := range sampleNs {
			params := experiments.GuidelineParams(n)
			// Bare: reset, resolve the view, then one cold forecast.
			svc.Reset()
			if _, err := store.View(site, cfg.Days, n); err != nil {
				return err
			}
			d, err := timeIt(func() error { _, err := svc.Forecast(bg, site, n, 1, params); return err })
			if err != nil {
				return err
			}
			bare = append(bare, ms(d))

			// Traced.
			req++
			svc.Reset()
			t0 := time.Now()
			if _, err := store.View(site, cfg.Days, n); err != nil {
				return err
			}
			t1 := time.Now()
			tr.record(req, 0, "expstore.view_miss", t0, t1)
			viewMiss = append(viewMiss, ms(t1.Sub(t0)))
			res, err := svc.Forecast(bg, site, n, 1, params)
			t2 := time.Now()
			if err != nil {
				return err
			}
			root := tr.record(req, 0, "serve.service.cold_forecast", t1, t2)
			g, err := replay(store, cfg.Days, site, n, params)
			t3 := time.Now()
			if err != nil {
				return err
			}
			tr.record(req, root, "guard.replay", t2, t3)
			f, err := g.Forecast(1)
			t4 := time.Now()
			if err != nil {
				return err
			}
			tr.record(req, root, "guard.forecast", t3, t4)
			if _, err := store.View(site, cfg.Days, n); err != nil {
				return err
			}
			t5 := time.Now()
			tr.record(req, root, "expstore.view", t4, t5)
			rep.attempted++
			if !sameFloats(res.Watts, f.Watts) {
				rep.fail("in-process cold forecast %s n=%d differs from direct replay", site, n)
			}
			coldMs := ms(t2.Sub(t1))
			traced = append(traced, coldMs)
			cold[n] = append(cold[n], coldMs)
			replays[n] = append(replays[n], ms(t3.Sub(t2)))
			wait = append(wait, coldMs-ms(t3.Sub(t2))-ms(t4.Sub(t3))-ms(t5.Sub(t4)))

			t6 := time.Now()
			if _, err := store.Grid(site, cfg.Days, n, cfg.EvalOptions(), churnSpaces[0], optimize.RefSlotMean); err != nil {
				return err
			}
			t7 := time.Now()
			tr.record(req, 0, "expstore.grid_miss", t6, t7)
			grids[n] = append(grids[n], ms(t7.Sub(t6)))
		}
	}
	m := rep.metrics
	for _, n := range sampleNs {
		m[fmt.Sprintf("serve.service.cold_forecast_ms.n%d", n)] = median(cold[n])
		m[fmt.Sprintf("guard.replay_ms.n%d", n)] = median(replays[n])
		m[fmt.Sprintf("expstore.grid_miss_ms.n%d", n)] = median(grids[n])
	}
	m["expstore.view_miss_ms"] = median(viewMiss)
	m["batcher.wait_ms"] = median(wait)
	m["trace.overhead_pct"] = (median(traced) - median(bare)) / median(bare) * 100
	rep.spans = tr.spans
	return nil
}
