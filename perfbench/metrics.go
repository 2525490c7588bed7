package main

import "fmt"

// metricSpec declares one reported metric; the lists below mirror
// BENCHMARK.json (a self-test holds them equal).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each surface sees. Every workload reports
// every one; see README.md for what each means per workload. The bounds
// are the widest allowed: on a shared 2-CPU host the same commit's
// timings drift by a fifth between runs made minutes apart.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// sampleNs is the paper's sampling-rate ladder, named in per-N metrics.
var sampleNs = []int{288, 96, 72, 48, 24}

// reproDrivers are the experiment drivers cmd/repro calls, in its order.
var reproDrivers = []string{
	"fig2", "tableii", "tableiii", "fig7", "tablev", "guidelines",
	"baselines", "tablevi", "errorbydaytype", "robustness", "seasonal",
}

// perLayer is the traced breakdown, grouped by the workload that
// measures it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	specs := []metricSpec{
		// Every workload.
		lower("trace.overhead_pct", "%"),
		lower("loadgen.lag_p99_ms", "ms"),
		higher("loadgen.slo_rps", "1/s"),

		// forecast-hot: a warm request, client to decoded response.
		lower("forecast.traced_e2e_us", "us"),
		lower("net.self_us", "us"),
		lower("serve.http.self_us", "us"),
		lower("serve.service.self_us", "us"),
		lower("guard.forecast_us", "us"),
		lower("expstore.view_hit_us", "us"),
		lower("forecast.unattributed_us", "us"),
		lower("serve.resp_bytes", "bytes"),
		lower("runtime.allocs_per_req", "count"),
		lower("runtime.alloc_bytes_per_req", "bytes"),
		lower("serve.server_mean_ms", "ms"),
	}
	// forecast-churn: cold work behind the request path.
	for _, n := range sampleNs {
		specs = append(specs, lower(fmt.Sprintf("serve.service.cold_forecast_ms.n%d", n), "ms"))
	}
	for _, n := range sampleNs {
		specs = append(specs, lower(fmt.Sprintf("guard.replay_ms.n%d", n), "ms"))
	}
	specs = append(specs, lower("expstore.view_miss_ms", "ms"))
	for _, n := range sampleNs {
		specs = append(specs, lower(fmt.Sprintf("expstore.grid_miss_ms.n%d", n), "ms"))
	}
	specs = append(specs,
		lower("batcher.wait_ms", "ms"),
		higher("expstore.hit_ratio.series", "ratio"),
		higher("expstore.hit_ratio.view", "ratio"),
		higher("expstore.hit_ratio.eval", "ratio"),
		higher("expstore.hit_ratio.grid", "ratio"),
		lower("batcher.computations", "count"),
		higher("batcher.coalesce_ratio", "ratio"),
		lower("batcher.abandoned", "count"),
		lower("serve.store_entries", "count"),
		lower("serve.shed", "count"),
		lower("serve.breaker_open", "count"),

		// fleet-20k: one node-slot.
		lower("fleet.setup.sites_ms", "ms"),
		lower("fleet.setup.traces_s", "s"),
		lower("fleet.traced_e2e_ns_per_slot", "ns"),
		lower("fleet.node_ns_per_slot", "ns"),
		lower("core.predict_ns_per_slot", "ns"),
		lower("harvest.step_ns_per_slot", "ns"),
		lower("metrics.acc_ns_per_slot", "ns"),
		lower("fleet.glue_ns_per_slot", "ns"),
		lower("fleet.agg_ns_per_node", "ns"),
		lower("fleet.merge_us", "us"),
		lower("fleet.unattributed_ns_per_slot", "ns"),
		higher("fleet.parallel_eff", "ratio"),
		lower("fleet.sketch_buckets", "count"),
	)
	// repro-full: the paper's drivers over one shared store.
	for _, d := range reproDrivers {
		specs = append(specs, lower("experiments."+d+"_s", "s"))
	}
	specs = append(specs,
		lower("mcu.tables_ms", "ms"),
		lower("dataset.generate_s", "s"),
	)
	for _, n := range sampleNs {
		specs = append(specs, lower(fmt.Sprintf("optimize.gridsearch_ms.n%d", n), "ms"))
	}
	specs = append(specs,
		lower("expstore.grid_misses", "count"),
		higher("expstore.grid_hit_ratio", "ratio"),
	)
	return specs
}
