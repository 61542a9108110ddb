package tuned

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
)

// GET /metrics: Prometheus text exposition (format 0.0.4), hand-rolled so
// the daemon keeps its zero-dependency stance. Everything /healthz reports
// as JSON for humans and orchestration probes is here as scrapeable
// counters/gauges for dashboards and alerting, plus the degradation
// observability the issue of the day demands: verdicts by provenance tier,
// breaker state and transition counts, refinement-queue depth.

// counters is the counter registry: every monotonic count the daemon keeps,
// stored exactly once. The request path adds to a field, /healthz reads the
// same field, and /metrics renders the families table declares — nothing is
// counted twice. Beside the plain counters sit the two labelled families
// that are hand-rendered from this storage: verdicts served by provenance
// tier and algorithm kind, and breaker transitions by the state entered.
type counters struct {
	requests, rejected, batches, measurements, retries, quarantined, partials atomic.Int64
	refineDone, refineDropped, refineFailed                                   atomic.Int64
	forwarded, forwardServed, failovers, localFallbacks                       atomic.Int64
	pushedEntries, pushFailures, mergedEntries                                atomic.Int64

	verdicts [autotune.TierRefined + 1][autotune.ImplicitGEMM + 1]atomic.Int64
	breaker  [autotune.BreakerHalfOpen + 1]atomic.Int64
}

// counterRow declares one plain counter's /metrics family.
type counterRow struct {
	n          *atomic.Int64
	name, help string
}

// table is the one declaration of the plain counters' names and help
// strings, in exposition order, as the three blocks /metrics renders under
// different conditions: always, with the refinement queue, when clustered.
func (c *counters) table() (base, refine, clustered []counterRow) {
	return []counterRow{
			{&c.requests, "tuned_requests_total", "POST /v1/tune requests answered (any tier)."},
			{&c.rejected, "tuned_rejected_total", "Requests shed by admission control with 429."},
			{&c.batches, "tuned_batches_total", "Tuning batches run."},
			{&c.measurements, "tuned_measurements_total", "Fresh measurements performed."},
			{&c.retries, "tuned_retries_total", "Transient measurement failures retried."},
			{&c.quarantined, "tuned_quarantined_total", "Configurations quarantined after repeated failures."},
			{&c.partials, "tuned_partial_responses_total", "Responses cut short by the request timeout."},
		}, []counterRow{
			{&c.refineDone, "tuned_refine_completed_total", "Refinement jobs that measured their network."},
			{&c.refineDropped, "tuned_refine_dropped_total", "Refinement jobs dropped on a full queue."},
			{&c.refineFailed, "tuned_refine_failed_total", "Refinement jobs whose measured sweep failed."},
		}, []counterRow{
			{&c.forwarded, "tuned_forwarded_total", "Client requests proxied to an owning peer."},
			{&c.forwardServed, "tuned_forward_served_total", "Peer-forwarded requests served locally."},
			{&c.failovers, "tuned_forward_failovers_total", "Forwards moved to the next owner after a failure."},
			{&c.localFallbacks, "tuned_forward_local_fallback_total", "Requests answered from the local analytic tier because every owner was unreachable."},
			{&c.pushedEntries, "tuned_replicate_pushed_entries_total", "Cache entries pushed to peers (replication and handoff replay)."},
			{&c.pushFailures, "tuned_replicate_push_failures_total", "Replication pushes diverted to hinted handoff."},
			{&c.mergedEntries, "tuned_replicate_merged_entries_total", "Cache entries merged from peer pushes."},
		}
}

// tierTotal sums one provenance tier over every kind — the /healthz total
// of the grid /metrics renders cell by cell.
func (c *counters) tierTotal(tier autotune.Tier) int64 {
	var n int64
	for k := range c.verdicts[tier] {
		n += c.verdicts[tier][k].Load()
	}
	return n
}

// metricsWriter accumulates one exposition; each family is HELP + TYPE +
// sample lines.
type metricsWriter struct{ strings.Builder }

func (m *metricsWriter) family(name, typ, help string) {
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(m, "%s%s %g\n", name, labels, v)
}

func (m *metricsWriter) counter(name, help string, v int64) {
	m.family(name, "counter", help)
	m.sample(name, "", float64(v))
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.family(name, "gauge", help)
	m.sample(name, "", v)
}

// boolGauge renders a boolean as the 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// counters renders one block of the registry's table.
func (m *metricsWriter) counters(rows []counterRow) {
	for _, r := range rows {
		m.counter(r.name, r.help, r.n.Load())
	}
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsWriter
	base, refine, clustered := s.count.table()

	m.gauge("tuned_uptime_seconds", "Seconds since the daemon booted.", time.Since(s.start).Seconds())
	m.counters(base)

	// Verdicts are labeled by provenance tier AND the algorithm kind the
	// per-layer choice settled on, so a dashboard can see e.g. depthwise
	// layers flipping from direct to igemm. The full tier×kind grid emits
	// (zeros included) so every series exists from the first scrape.
	m.family("tuned_verdicts_total", "counter", "Layer verdicts served, by provenance tier and algorithm kind.")
	for _, tier := range []autotune.Tier{autotune.TierMeasured, autotune.TierAnalytic, autotune.TierRefined} {
		for _, kind := range autotune.Kinds {
			m.sample("tuned_verdicts_total",
				fmt.Sprintf("tier=%q,kind=%q", tier.String(), kind.String()),
				float64(s.count.verdicts[tier][kind].Load()))
		}
	}

	if s.breaker != nil {
		m.gauge("tuned_breaker_state",
			"Measurement circuit breaker state: 0 closed, 1 open, 2 half-open.",
			float64(s.breaker.State()))
		m.family("tuned_breaker_transitions_total", "counter", "Breaker transitions, by state entered.")
		for _, st := range []autotune.BreakerState{autotune.BreakerOpen, autotune.BreakerHalfOpen, autotune.BreakerClosed} {
			m.sample("tuned_breaker_transitions_total", `state="`+st.String()+`"`, float64(s.count.breaker[st].Load()))
		}
	}
	if s.refineCh != nil {
		m.gauge("tuned_refine_queue_depth", "Analytically-answered networks awaiting background measurement.", float64(len(s.refineCh)))
		m.counters(refine)
	}

	cs := s.cache.Stats()
	m.gauge("tuned_cache_entries", "Tuning cache entries resident.", float64(cs.Entries))
	m.gauge("tuned_cache_bytes", "Approximate tuning cache bytes resident.", float64(cs.Bytes))
	m.counter("tuned_cache_hits_total", "Tuning cache hits.", cs.Hits)
	m.counter("tuned_cache_misses_total", "Tuning cache misses.", cs.Misses)
	m.counter("tuned_cache_evictions_total", "Tuning cache evictions.", cs.Evictions)

	s.clusterMetrics(&m, clustered)

	m.gauge("tuned_inflight_budget", "Measurement budget currently reserved by admitted requests.", float64(s.adm.load()))
	m.gauge("tuned_snapshot_age_seconds", "Age of the last successful state flush (-1: never).", s.snapshotAge())
	m.gauge("tuned_state_salvaged", "1 when boot salvaged a damaged state file.", boolGauge(s.salvaged))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, m.String())
}
