package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/tuned"
)

// archName is the simulated device every request targets.
const archName = "V100"

// batchWindow is cmd/tuned's -batch-window default; the stage replay books
// it as the batcher's wait.
const batchWindow = 20 * time.Millisecond

// daemonConfig is cmd/tuned started with no flags: engine defaults with the
// flag's seed 0, Winograd and warm-starting on, a 20ms batch window.
func daemonConfig() tuned.Config {
	opts := autotune.DefaultOptions()
	opts.Seed = 0
	opts.Workers = 0
	return tuned.Config{Cache: autotune.NewCache(), Tune: opts,
		Winograd: true, Warm: true, BatchWindow: batchWindow}
}

// deadBackendConfig is daemonConfig with every measurement failing and a
// breaker that, once tripped, stays open for the whole run.
func deadBackendConfig() tuned.Config {
	cfg := daemonConfig()
	cfg.Chaos = chaos.Config{Seed: 1, FailRate: 1}
	cfg.Breaker = autotune.BreakerConfig{Threshold: 0.5, Cooldown: time.Hour}
	return cfg
}

// daemon is one in-process tuned.Server behind a real loopback listener,
// served the way cmd/tuned serves it.
type daemon struct {
	srv    *tuned.Server
	cache  *autotune.Cache // the cache cfg handed the server
	hs     *http.Server
	url    string
	served chan struct{}
}

// bootDaemon starts a server on ln (nil picks a free loopback port).
func bootDaemon(cfg tuned.Config, ln net.Listener) (*daemon, error) {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	srv, err := tuned.New(cfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	d := &daemon{srv: srv, cache: cfg.Cache, url: "http://" + ln.Addr().String(), served: make(chan struct{}),
		hs: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout: time.Minute, WriteTimeout: 10 * time.Minute, IdleTimeout: 2 * time.Minute}}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return d, nil
}

// close drops the listener and every connection, waits for the serve loop
// and stops the server's background work.
func (d *daemon) close() error {
	d.hs.Close()
	<-d.served
	return d.srv.Close()
}

// clusterPortBase is where the three replicas of cluster-mixed listen.
// Ownership on the ring is a hash of the advertised addresses, so fixed
// ports make the same seed route the same way on every run. The ports sit
// below Linux's ephemeral range; if one is taken the next triple is tried.
const clusterPortBase = 19411

// bootCluster starts n replicas sharing one peer list, replication factor 2
// and the default hedge and probe timing.
func bootCluster(n int, mk func() tuned.Config) ([]*daemon, error) {
	var lns []net.Listener
	var lastErr error
	for try := 0; try < 50 && len(lns) < n; try++ {
		lns = lns[:0]
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(clusterPortBase+try*n+i))
			if err != nil {
				lastErr = err
				for _, l := range lns {
					l.Close()
				}
				lns = lns[:0]
				break
			}
			lns = append(lns, ln)
		}
	}
	if len(lns) < n {
		return nil, fmt.Errorf("no free port triple for the cluster: %w", lastErr)
	}
	peers := make([]string, n)
	for i, ln := range lns {
		peers[i] = "http://" + ln.Addr().String()
	}
	var ds []*daemon
	for i, ln := range lns {
		cfg := mk()
		cfg.Cluster = cluster.Config{Self: peers[i], Peers: peers, Replicas: 2}
		d, err := bootDaemon(cfg, ln)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			closeAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func closeAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newClient is the load generator's HTTP client: conns keep-alive
// connections per daemon, no more.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}}
}

// postTune POSTs one request body and returns the status, the response
// body and the client-side latency.
func postTune(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// health fetches and decodes /healthz.
func health(c *http.Client, url string) (tuned.Health, error) {
	var h tuned.Health
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("%s/healthz: status %d", url, resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// scrape fetches /metrics and returns the unlabelled series by name.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// counters is the sum over a set of daemons of what /healthz and /metrics
// count; a window's share is the difference of two readings (minus).
type counters struct {
	inflight                                            float64 // admitted measurement budget, now
	measurements, requests, rejected, batches, partials float64
	cacheHits, cacheMisses, cacheEntries                float64
	forwarded, hedges, failovers, localFallbacks        float64
	pushedEntries, pushFailures                         float64
	refineDepth, handoffDepth                           float64
}

// minus is the counts between two readings; the gauges (inflight, entries,
// depths) keep c's value.
func (c counters) minus(b counters) counters {
	c.measurements -= b.measurements
	c.requests -= b.requests
	c.rejected -= b.rejected
	c.batches -= b.batches
	c.partials -= b.partials
	c.cacheHits -= b.cacheHits
	c.cacheMisses -= b.cacheMisses
	c.forwarded -= b.forwarded
	c.hedges -= b.hedges
	c.failovers -= b.failovers
	c.localFallbacks -= b.localFallbacks
	c.pushedEntries -= b.pushedEntries
	c.pushFailures -= b.pushFailures
	return c
}

func readCounters(c *http.Client, ds []*daemon) (counters, error) {
	var n counters
	for _, d := range ds {
		h, err := health(c, d.url)
		if err != nil {
			return n, err
		}
		m, err := scrape(c, d.url)
		if err != nil {
			return n, err
		}
		n.inflight += float64(h.InflightBudget)
		n.measurements += float64(h.Measurements)
		n.requests += float64(h.Requests)
		n.rejected += float64(h.Rejected)
		n.batches += float64(h.Batches)
		n.partials += float64(h.PartialResponses)
		n.cacheHits += float64(h.Cache.Hits)
		n.cacheMisses += float64(h.Cache.Misses)
		n.cacheEntries += float64(h.Cache.Entries)
		n.refineDepth += float64(h.RefineQueueDepth)
		if h.Cluster != nil {
			n.handoffDepth += float64(h.Cluster.HandoffDepth)
		}
		n.forwarded += m["tuned_forwarded_total"]
		n.hedges += m["tuned_forward_hedges_total"]
		n.failovers += m["tuned_forward_failovers_total"]
		n.localFallbacks += m["tuned_forward_local_fallback_total"]
		n.pushedEntries += m["tuned_replicate_pushed_entries_total"]
		n.pushFailures += m["tuned_replicate_push_failures_total"]
	}
	return n, nil
}

// settled waits until no daemon holds admitted measurement budget and the
// counters have stood still for settleFor, and returns them. A hedged
// duplicate keeps tuning on the losing owner after the client has its
// answer, and replication pushes — megabytes of engine state, encoded, sent
// and merged off the response path — show in the counters only once merged.
func settled(c *http.Client, ds []*daemon) (counters, error) {
	const poll, settleFor = 50 * time.Millisecond, 200 * time.Millisecond
	var last counters
	still := time.Duration(0)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(poll) {
		n, err := readCounters(c, ds)
		if err != nil {
			return n, err
		}
		if n.inflight > 0 || n != last {
			last, still = n, 0
			continue
		}
		if still += poll; still >= settleFor {
			return n, nil
		}
	}
	return last, fmt.Errorf("daemons still busy a minute after the last request")
}
