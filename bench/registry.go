package main

// This file is the benchmark's registry: the workloads and every metric the
// harness emits, with unit, direction and — for end-to-end metrics — the
// share of the parent's median by which a later change may worsen it.
// BENCHMARK.json at the repo root repeats the machine-readable part; the
// smoke test fails when the two differ.

// Workload names are fixed: later issues cite them.
const (
	coldZoo      = "cold-zoo"
	hitReplay    = "hit-replay"
	shedAnalytic = "shed-analytic"
	clusterMixed = "cluster-mixed"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{coldZoo, "fresh daemon per pass tunes the six-network zoo: time-to-tuned-network and verdict quality; >=95% engine (tuner, gbt, measure, bound)"},
	{hitReplay, "zoo pre-tuned, then seeded replays, every layer cached: engine idle; service, batch wait, cache and the cached sweep are the whole cost"},
	{shedAnalytic, "measurement backend dead, breaker open: analytic tier only, bypassing batcher, admission, cache and engine; half zoo, half a 24-network pool"},
	{clusterMixed, "3 replicas, RF 2: 80% zoo replays, 20% fresh tunes at budget 48 to a seeded replica: ring, forward hop, hedging, replication writes beside reads"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Meaning is the one-line reason the metric exists; it is documentation
	// and stays out of BENCHMARK.json, whose keys are fixed.
	Meaning string `json:"-"`
}

// endToEnd is what a user of the daemon sees. Every workload reports every
// one of them, and none is ever 0. network_ms is simulated device time, not
// wall time, hence its own unit. Throughput is not among them: every workload
// is a closed loop of a fixed number of clients, where it is that number over
// the mean latency and says nothing req_p50_ms does not — except what the
// box's other tenants did during the run, which on this box moves it 15%
// between like runs (tuned.throughput_rps, per layer, keeps the reading).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of the run's set-ups: input generation, boot, readiness probe and first work (pre-tune, breaker trip, or a new daemon's first small tune), before the timed window"},
	{"req_p50_ms", "ms", "lower", 0.25, "client-side latency of a repeat POST /v1/tune: the median per network, averaged over the window's mix"},
	{"first_touch_ms", "ms", "lower", 0.25, "client-side latency of the first request for a network the daemon has not seen, fastest of the run's repeats, averaged over the networks"},
	{"measurements", "count", "lower", 0.15, "fresh measurements per cold network: the window's cold tunes, or the set-up's where the window tunes nothing cold"},
	{"network_ms", "sim_ms", "lower", 0.05, "sum over the zoo of the served network_seconds: verdict quality of the tier this workload is answered from"},
	{"bound_gap", "ratio", "lower", 0.05, "geomean over the zoo's distinct verdicts of seconds / the kind's analytic I/O-bound floor: the paper's thesis as one number"},
	{"live_heap_mb", "MiB", "lower", 0.25, "HeapAlloc after a forced GC at the end of the window, servers still up, less the harness's own observation log"},
}

// perLayer metrics have no bound; a traced run reports all of them. The
// micro timings (ns/us/ms of one exported call) do not depend on the
// workload; the counters and latency classes do, and read 0 where the
// workload never exercises the layer.
var perLayer = []metricDef{
	{Name: "service.parse_us", Unit: "us", Better: "lower", Meaning: "ParseNetworkDescription, mean over the zoo bodies"},
	{Name: "service.encode_us", Unit: "us", Better: "lower", Meaning: "DescribeVerdicts + JSON encode of a zoo response, mean over the zoo"},
	{Name: "service.parse_allocs", Unit: "count", Better: "lower", Meaning: "allocations of one parse"},
	{Name: "service.encode_allocs", Unit: "count", Better: "lower", Meaning: "allocations of one encode"},

	{Name: "tuned.hit_p50_ms", Unit: "ms", Better: "lower", Meaning: "median latency of requests answered wholly from cache"},
	{Name: "tuned.hit_p99_ms", Unit: "ms", Better: "lower", Meaning: "p99 of the same"},
	{Name: "tuned.cold_p50_ms", Unit: "ms", Better: "lower", Meaning: "median latency of requests that ran at least one fresh search"},
	{Name: "tuned.req_p99_ms", Unit: "ms", Better: "lower", Meaning: "p99 latency over every request of the window"},
	{Name: "tuned.throughput_rps", Unit: "1/s", Better: "higher", Meaning: "200s per wall second of the window: clients / mean latency, the loop being closed"},
	{Name: "tuned.overhead_ms", Unit: "ms", Better: "lower", Meaning: "root span minus replayed stages, median over replayed requests: handler, batcher and HTTP self time"},
	{Name: "tuned.allocs_per_req", Unit: "count", Better: "lower", Meaning: "process-wide mallocs per request over the window (client and harness included)"},
	{Name: "tuned.batches_per_req", Unit: "ratio", Better: "lower", Meaning: "tuning batches run per request accepted (1 = nothing merged)"},
	{Name: "tuned.rejected", Unit: "count", Better: "lower", Meaning: "requests shed with 429"},
	{Name: "tuned.partials", Unit: "count", Better: "lower", Meaning: "responses cut short by a deadline"},
	{Name: "tuned.analytic_share", Unit: "ratio", Better: "lower", Meaning: "share of responses answered by the analytic tier"},
	{Name: "tuned.refine_queue_depth", Unit: "count", Better: "lower", Meaning: "refinement jobs waiting at the end of the window"},

	{Name: "cluster.owners_ns", Unit: "ns", Better: "lower", Meaning: "Ring.Owners on a 3-peer ring, RF 2"},
	{Name: "cluster.forward_share", Unit: "ratio", Better: "lower", Meaning: "share of client requests proxied to an owner"},
	{Name: "cluster.forward_overhead_ms", Unit: "ms", Better: "lower", Meaning: "Client.Forward to an owner minus a direct POST to it, same cached body, sequential"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Meaning: "hedged duplicate forwards launched"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Meaning: "forwards moved to the next owner"},
	{Name: "cluster.local_fallbacks", Unit: "count", Better: "lower", Meaning: "requests answered analytically because no owner was reachable"},
	{Name: "cluster.pushed_entries", Unit: "count", Better: "higher", Meaning: "cache entries replicated to peers"},
	{Name: "cluster.push_failures", Unit: "count", Better: "lower", Meaning: "replication pushes diverted to hinted handoff"},
	{Name: "cluster.divergent_replays", Unit: "count", Better: "lower", Meaning: "requests answered differently from the first answer for their network: owners holding different verdicts"},
	{Name: "cluster.handoff_depth_end", Unit: "count", Better: "lower", Meaning: "entries still parked for peers at the end"},

	{Name: "cache.get_ns", Unit: "ns", Better: "lower", Meaning: "Cache.Get of a resident key, zoo-warmed cache"},
	{Name: "cache.put_us", Unit: "us", Better: "lower", Meaning: "Cache.PutTrace of a 192-measurement trace"},
	{Name: "cache.save_ms", Unit: "ms", Better: "lower", Meaning: "Cache.Save of the zoo-warmed cache to memory"},
	{Name: "cache.recover_ms", Unit: "ms", Better: "lower", Meaning: "Cache.RecoverFile of that state into a fresh cache"},
	{Name: "cache.state_bytes", Unit: "bytes", Better: "lower", Meaning: "size of the zoo-warmed cache's saved state"},
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher", Meaning: "cache hits / (hits + misses) over the window, all replicas"},
	{Name: "cache.entries", Unit: "count", Better: "lower", Meaning: "cache entries resident at the end, all replicas"},

	{Name: "network.sweep_cold_ms", Unit: "ms", Better: "lower", Meaning: "TuneNetwork on ResNet-18 against a fresh cache, no HTTP"},
	{Name: "network.sweep_cached_us", Unit: "us", Better: "lower", Meaning: "the same sweep against the cache it just filled"},
	{Name: "network.shared_share", Unit: "ratio", Better: "higher", Meaning: "share of served verdicts that ran no search of their own"},

	{Name: "tuner.search_ms", Unit: "ms", Better: "lower", Meaning: "one Tune of the BenchmarkTuneEngine layer, budget 192, warmed measurer"},
	{Name: "tuner.us_per_measurement", Unit: "us", Better: "lower", Meaning: "search_ms / measurements"},
	{Name: "tuner.measurements", Unit: "count", Better: "lower", Meaning: "measurements that search performed"},
	{Name: "tuner.pruned", Unit: "count", Better: "higher", Meaning: "candidates that search skipped on the bound"},
	{Name: "tuner.converged_at", Unit: "count", Better: "lower", Meaning: "measurement index of that search's last improvement"},
	{Name: "tuner.self_ms", Unit: "ms", Better: "lower", Meaning: "search_ms minus the replayed gbt, measure and bound shares"},

	{Name: "gbt.train_ms", Unit: "ms", Better: "lower", Meaning: "TrainGBT on that search's history (standalone replay)"},
	{Name: "gbt.update_ms", Unit: "ms", Better: "lower", Meaning: "Update with 8 rounds and 8 more rows (standalone replay)"},
	{Name: "gbt.predict_batch_us", Unit: "us", Better: "lower", Meaning: "PredictBatch of 256 rows (standalone replay)"},

	{Name: "measure.dry_ns", Unit: "ns", Better: "lower", Meaning: "MemoMeasure.Measure of a memoised configuration"},
	{Name: "measure.dry_miss_ns", Unit: "ns", Better: "lower", Meaning: "MemoMeasure.Measure of a configuration seen for the first time"},
	{Name: "bound.seconds_ns", Unit: "ns", Better: "lower", Meaning: "Space.BoundSeconds of one configuration"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Meaning: "(traced - untraced) / untraced req_p50_ms, same run; above 0.25 the trace distorts what it measures"},

	{Name: "analytic.scan_ms", Unit: "ms", Better: "lower", Meaning: "first AnalyticTop on a fresh Space, median over the zoo's spaces"},
	{Name: "analytic.scan_allocs", Unit: "count", Better: "lower", Meaning: "allocations of that scan, median over the zoo's spaces"},
	{Name: "analytic.serve_us", Unit: "us", Better: "lower", Meaning: "AnalyticDSE.NetworkKinds on ResNet-18, spaces already scanned"},
	{Name: "analytic.regret", Unit: "ratio", Better: "lower", Meaning: "analytic pick re-measured / tuned verdict, geomean over the zoo's layers"},
}
