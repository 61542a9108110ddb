package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
)

// layerMetrics turns a traced window (and the untraced reference window run
// before it on the same seed) into the registry's per-layer metrics, and
// writes the trace file. mirror is the daemons' cache state as the traced
// window found it.
func (f *fixture) layerMetrics(ref, w *window, mirror *autotune.Cache, seed int64, mt microTimer) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))

	t, err := f.traceWindow(w, mirror)
	if err != nil {
		return nil, err
	}
	sum := t.summarize()
	if err := t.write(f.workload, seed, sum); err != nil {
		return nil, err
	}
	fmt.Printf("%s: the replayed stages account for %.0f%% of the root span (median over %d replayed requests)\n",
		f.workload, 100*sum.coverage, sum.replayed)
	for _, s := range sum.stages {
		fmt.Printf("  %-18s %10.1f us self  %5.1f%% of root  (%d requests)\n", s.Stage, s.SelfUS, s.OfRootPC, s.Spans)
	}

	// tuned: latency by class of service, and what the daemon counted.
	byClass := make(map[string][]float64)
	var all []float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			byClass[s.Class] = append(byClass[s.Class], s.us()/1e3)
			all = append(all, s.us()/1e3)
		}
	}
	ok := 0
	for _, o := range w.obs {
		if o.status == http.StatusOK {
			ok++
		}
	}
	d := w.after.minus(w.before)
	requests := float64(len(w.obs))
	m["tuned.hit_p50_ms"] = median(byClass["hit"])
	m["tuned.hit_p99_ms"] = percentile(byClass["hit"], 99)
	m["tuned.cold_p50_ms"] = median(byClass["cold"])
	m["tuned.req_p99_ms"] = percentile(all, 99)
	m["tuned.throughput_rps"] = float64(ok) / w.elapsed.Seconds()
	m["tuned.overhead_ms"] = sum.overheadMS
	m["tuned.allocs_per_req"] = float64(w.mallocs) / requests
	m["tuned.batches_per_req"] = ratio(d.batches, d.requests)
	m["tuned.rejected"] = d.rejected
	m["tuned.partials"] = d.partials
	m["tuned.analytic_share"] = float64(len(byClass["analytic"])+len(byClass["first-touch"])) / requests
	m["tuned.refine_queue_depth"] = d.refineDepth
	m["bench.trace_overhead_share"] = (reqP50(w.obs) - reqP50(ref.obs)) / reqP50(ref.obs)

	// cluster: routing and replication counters (0 off the cluster).
	m["cluster.forward_share"] = d.forwarded / requests
	m["cluster.hedges"] = d.hedges
	m["cluster.failovers"] = d.failovers
	m["cluster.local_fallbacks"] = d.localFallbacks
	m["cluster.pushed_entries"] = d.pushedEntries
	m["cluster.push_failures"] = d.pushFailures
	m["cluster.handoff_depth_end"] = d.handoffDepth
	m["cluster.divergent_replays"] = 0
	for _, diverges := range w.divergent() {
		if diverges {
			m["cluster.divergent_replays"]++
		}
	}
	if m["cluster.forward_overhead_ms"], err = f.forwardOverheadMS(); err != nil {
		return nil, err
	}

	// cache and network: what the window's requests found.
	m["cache.hit_share"] = ratio(d.cacheHits, d.cacheHits+d.cacheMisses)
	m["cache.entries"] = d.cacheEntries
	var shared, verdicts float64
	perResponse := make([][2]float64, len(w.responses))
	for i, r := range w.responses {
		var resp repro.TuneResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return nil, err
		}
		for _, v := range resp.Verdicts {
			perResponse[i][1]++
			if v.Shared {
				perResponse[i][0]++
			}
		}
	}
	for _, o := range w.obs {
		if o.resp >= 0 {
			shared += perResponse[o.resp][0]
			verdicts += perResponse[o.resp][1]
		}
	}
	m["network.shared_share"] = ratio(shared, verdicts)

	return m, microMetrics(mt, f.plan.nets, m)
}

// forwardOverheadMS is what the forward hop costs on this cluster: the
// median of Client.Forward to an owner of a cached zoo network minus the
// median of a direct POST of the same body to that owner, taken in turns.
// 0 off the cluster.
func (f *fixture) forwardOverheadMS() (float64, error) {
	if len(f.daemons) < 2 {
		return 0, nil
	}
	n := f.plan.nets[2]
	// An owner serves the request itself: its forwarded counter stands still.
	var owner *daemon
	for _, d := range f.daemons {
		before, err := scrape(f.client, d.url)
		if err != nil {
			return 0, err
		}
		if status, _, _, err := postTune(f.client, d.url, n.body); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("forward overhead: POST to %s: status %d: %v", d.url, status, err)
		}
		after, err := scrape(f.client, d.url)
		if err != nil {
			return 0, err
		}
		if after["tuned_forwarded_total"] == before["tuned_forwarded_total"] {
			owner = d
			break
		}
	}
	if owner == nil {
		return 0, fmt.Errorf("forward overhead: no replica owns %s", n.name)
	}
	envelope, err := json.Marshal(repro.ForwardedTuneRequest{Origin: "http://bench", Attempt: 1, Network: n.desc})
	if err != nil {
		return 0, err
	}
	peer := cluster.NewClient(cluster.ClientConfig{})
	const rounds = 21
	var direct, forwarded []float64
	for i := 0; i < rounds; i++ {
		status, _, lat, err := postTune(f.client, owner.url, n.body)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("forward overhead: direct POST: status %d: %v", status, err)
		}
		direct = append(direct, float64(lat)/float64(time.Millisecond))
		start := time.Now()
		status, _, err = peer.Forward(context.Background(), owner.url, envelope)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("forward overhead: Client.Forward: status %d: %v", status, err)
		}
		forwarded = append(forwarded, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(forwarded) - median(direct), nil
}
