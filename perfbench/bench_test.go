package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/serve"
)

func TestScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 1000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v out of order or past the phase", i, a[i])
		}
	}

	cs := newChurnSpace([]string{"SPMD", "ORNL"}, 3)
	d1, o1 := cs.schedule(rand.New(rand.NewSource(5)), 200, 4*time.Second, true)
	d2, o2 := cs.schedule(rand.New(rand.NewSource(5)), 200, 4*time.Second, true)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed gave different churn schedules")
	}
	for i, op := range o1 {
		if i > 0 && d1[i] < d1[i-1] {
			t.Fatalf("churn op %d due before its predecessor", i)
		}
		if (op.kind == opReset) != (i == 0) {
			t.Fatalf("churn op %d is %v; only the first operation resets", i, op.kind)
		}
	}
	if _, ops := cs.schedule(rand.New(rand.NewSource(5)), 200, 4*time.Second, false); len(ops) == 0 {
		t.Fatal("empty forecast-only schedule")
	} else {
		for i, op := range ops {
			if op.kind != opForecast {
				t.Fatalf("forecast-only op %d is %v", i, op.kind)
			}
		}
	}
	s1 := cs.sequence(rand.New(rand.NewSource(5)), 500)
	s2 := cs.sequence(rand.New(rand.NewSource(5)), 500)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different closed-loop churn sequences")
	}
	for i, op := range s1 {
		if (op.kind == opReset) != (i == 0) {
			t.Fatalf("closed-loop churn op %d is %v; only the first operation resets", i, op.kind)
		}
	}
}

func TestClosedLoopSendsEachOperationOnce(t *testing.T) {
	var sent [100]atomic.Int32
	outs, _ := closedLoop(len(sent), 2, time.Minute, func(i int) error { sent[i].Add(1); return nil })
	if len(outs) != len(sent) {
		t.Fatalf("%d outcomes for %d operations", len(outs), len(sent))
	}
	for i := range sent {
		if n := sent[i].Load(); n != 1 {
			t.Fatalf("operation %d sent %d times", i, n)
		}
	}
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) // ties on purpose
		}
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			// Brute force: the smallest sample with at least p% of the
			// samples at or below it.
			want := math.Inf(1)
			for _, x := range xs {
				le := 0
				for _, y := range xs {
					if y <= x {
						le++
					}
				}
				if float64(le) >= p/100*float64(len(xs)) && x < want {
					want = x
				}
			}
			if got := percentile(xs, p); got != want {
				t.Fatalf("percentile(%v, %v) = %v, brute force %v", xs, p, got, want)
			}
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		var wantMed float64
		if n := len(s); n%2 == 1 {
			wantMed = s[n/2]
		} else {
			wantMed = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != wantMed {
			t.Fatalf("median(%v) = %v, want %v", xs, got, wantMed)
		}
	}
}

// randomTree builds spans whose children lie, without overlapping, inside
// their parent's interval.
func randomTree(rng *rand.Rand, spans *[]span, parent int, start, end int64, depth int) {
	id := len(*spans) + 1
	*spans = append(*spans, span{ID: id, Parent: parent, Name: "s", Start: start, End: end})
	if depth == 0 || end-start < 4 {
		return
	}
	cursor := start
	for k := rng.Intn(4); k > 0 && cursor < end; k-- {
		a := cursor + rng.Int63n((end-cursor)/2+1)
		b := a + rng.Int63n(end-a+1)
		randomTree(rng, spans, id, a, b, depth-1)
		cursor = b
	}
}

func TestSelfTimesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var spans []span
		randomTree(rng, &spans, 0, 0, 200, 3)
		self := selfTimes(spans)
		for _, s := range spans {
			// Brute force: count the instants of s not covered by a child.
			var want int64
			for x := s.Start; x < s.End; x++ {
				covered := false
				for _, c := range spans {
					if c.Parent == s.ID && c.Start <= x && x < c.End {
						covered = true
					}
				}
				if !covered {
					want++
				}
			}
			if self[s.ID] != want {
				t.Fatalf("span %d self time %d, brute force %d", s.ID, self[s.ID], want)
			}
		}
	}
}

func TestSloRateInterpolates(t *testing.T) {
	pass := func(rate, p90 float64) phase { return phase{OfferedRPS: rate, P90Ms: p90, LimitMs: 10, Meets: true} }
	fail := func(rate, p90 float64) phase { return phase{OfferedRPS: rate, P90Ms: p90, LimitMs: 10} }
	if got := sloRate([]phase{pass(100, 2), pass(200, 6), fail(300, 14)}); got != 250 {
		t.Fatalf("interpolated SLO rate %v, want 250", got)
	}
	if got := sloRate([]phase{pass(100, 2), pass(200, 3)}); got != 200 {
		t.Fatalf("all rungs pass: %v, want the top rung 200", got)
	}
	if got := sloRate([]phase{fail(100, 20)}); got != 50 {
		t.Fatalf("failing first rung: %v, want 50", got)
	}
}

func TestLagGrowthFailsPhase(t *testing.T) {
	var outs []outcome
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * time.Millisecond
		lag := time.Duration(i) * 30 * time.Microsecond * time.Duration(i) // grows without bound
		outs = append(outs, outcome{due: due, sent: due + lag, done: due + lag + time.Millisecond})
	}
	if p := summarise(100, len(outs), outs, false, 50); !p.LagGrowing || p.Meets {
		t.Fatalf("growing lag not flagged: %+v", p)
	}
	steady := make([]outcome, len(outs))
	for i := range steady {
		due := time.Duration(i) * time.Millisecond
		steady[i] = outcome{due: due, sent: due, done: due + time.Millisecond}
	}
	if p := summarise(100, len(steady), steady, false, 50); p.LagGrowing || !p.Meets {
		t.Fatalf("steady phase flagged: %+v", p)
	}
}

func TestForecastCheckFiresOnCorruptResponse(t *testing.T) {
	want := []float64{0, 1.25, 3.0000000000000004}
	tuple := &forecastTuple{site: "SPMD", n: 48, h: 3, params: core.Params{Alpha: 0.7, D: 10, K: 2}, want: want, url: "/v1/forecast?site=SPMD&n=48&horizon=3"}
	body := func(mut func(*serve.ForecastResult)) []byte {
		r := serve.ForecastResult{Site: "SPMD", N: 48, Horizon: 3, Watts: append([]float64(nil), want...)}
		mut(&r)
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkForecast(body(func(*serve.ForecastResult) {}), tuple); err != nil {
		t.Fatalf("faithful response rejected: %v", err)
	}
	corruptions := map[string]func(*serve.ForecastResult){
		"one ulp":    func(r *serve.ForecastResult) { r.Watts[2] = math.Nextafter(r.Watts[2], 4) },
		"short":      func(r *serve.ForecastResult) { r.Watts = r.Watts[:2] },
		"degraded":   func(r *serve.ForecastResult) { r.Degraded = true },
		"wrong n":    func(r *serve.ForecastResult) { r.N = 96 },
		"negzero":    func(r *serve.ForecastResult) { r.Watts[0] = math.Copysign(0, -1) },
		"wrong site": func(r *serve.ForecastResult) { r.Site = "ORNL" },
	}
	for name, mut := range corruptions {
		if err := checkForecast(body(mut), tuple); err == nil {
			t.Errorf("%s: corrupted response passed the check", name)
		}
	}
	if err := checkForecast([]byte(`{"watts": [0, 1.25`), tuple); err == nil {
		t.Error("truncated body passed the check")
	}
}

func TestReproDigestIgnoresTimingLines(t *testing.T) {
	a := []byte("==== Table I ====\n\nrows\n(1.2s)\n\n==== Fig. 2 ====\n(0.0s)\n\n")
	b := []byte("==== Table I ====\n\nrows\n(13.7s)\n\n==== Fig. 2 ====\n(2.5s)\n\n")
	c := []byte("==== Table I ====\n\nrowz\n(1.2s)\n\n==== Fig. 2 ====\n(0.0s)\n\n")
	if reproOutputDigest(a) != reproOutputDigest(b) {
		t.Fatal("timing lines changed the digest")
	}
	if reproOutputDigest(a) == reproOutputDigest(c) {
		t.Fatal("a changed table did not change the digest")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, code %+v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list")
	}
}
