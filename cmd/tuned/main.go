// Command tuned is the tuning-as-a-service daemon: a long-running HTTP
// server wrapping the network auto-tuner.
//
//	tuned -addr :9911 -state tuned.cache -resume
//
// Clients POST a JSON network description to /v1/tune and get per-layer
// verdicts back; GET /healthz serves the cache and admission counters and
// GET /metrics the same observability as a Prometheus text exposition.
// Identical in-flight requests collapse into one search, concurrent
// distinct networks merge into one warm sweep, and SIGTERM flushes the
// cache (verdicts plus engine state) to -state so the next boot replays
// instead of re-tuning. With -pprof the runtime profiles are served under
// /debug/pprof/ as well.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/tuned"
)

func main() {
	var f flagConfig
	addr := flag.String("addr", "127.0.0.1:9911", "listen address")
	state := flag.String("state", "", "cache state file: loaded on boot, flushed on shutdown")
	resume := flag.Bool("resume", false, "resume cached searches whose persisted budget is short of the requested one")
	flag.DurationVar(&f.batchWindow, "batch-window", 20*time.Millisecond, "admission window within which requests arriving behind a running tuning batch merge into the next one (an idle daemon runs a request at once)")
	flag.Int64Var(&f.maxInflight, "max-inflight", 0, "max in-flight measurement budget before requests are shed with 429 (0 = unlimited)")
	flag.IntVar(&f.cacheEntries, "cache-entries", 0, "max cached search keys before LRU eviction (0 = unlimited)")
	flag.Int64Var(&f.cacheBytes, "cache-bytes", 0, "approximate max cache size in bytes before LRU eviction (0 = unlimited)")
	flag.DurationVar(&f.cacheTTL, "cache-ttl", 0, "expire cache entries unused for this long (0 = never)")
	flag.IntVar(&f.budget, "budget", 0, "default per-layer measurement budget (0 = engine default)")
	flag.Int64Var(&f.seed, "seed", 0, "default engine seed")
	flag.IntVar(&f.workers, "workers", 0, "measurement workers per search (0 = 1: a batch is measured on one goroutine)")
	flag.IntVar(&f.layerWorkers, "layer-workers", 0, "concurrent per-layer searches per batch (0 = GOMAXPROCS)")
	winograd := flag.Bool("winograd", true, "also tune the fused Winograd dataflow where it applies")
	warm := flag.Bool("warm", true, "warm-start searches from tuned relatives (cross-request transfer)")
	flag.DurationVar(&f.requestTimeout, "request-timeout", 0, "deadline per tuning batch; past it, responses carry best-so-far verdicts marked partial, which a re-POST continues (needs -resume; 0 = none)")
	flag.DurationVar(&f.snapshotInterval, "snapshot-interval", 0, "flush -state in the background this often, not only at shutdown (0 = shutdown only)")
	flag.IntVar(&f.measureRetries, "measure-retries", 0, "measurement attempts per config before quarantine (0 or 1 = no retries)")
	flag.DurationVar(&f.retryBackoff, "retry-backoff", 0, "base wait before a measurement retry; doubles per retry with seeded jitter")
	flag.DurationVar(&f.retryBackoffMax, "retry-backoff-max", 0, "cap on the exponential retry backoff (0 = uncapped)")
	flag.Float64Var(&f.noiseThreshold, "noise-threshold", 0, "re-measure readings within this relative fraction of the I/O-bound floor and take the median (0 = off)")
	flag.IntVar(&f.noiseMedian, "noise-median", 0, "readings gathered by the noise defense before taking the median (default 3)")
	flag.Float64Var(&f.chaosFailRate, "chaos-fail-rate", 0, "inject seeded transient measurement failures at this rate (testing only)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed of the fault-injection schedule")
	flag.IntVar(&f.chaosMaxConsecutive, "chaos-max-consecutive", 2, "cap on injected consecutive failures per config (keep below -measure-retries)")
	analyticOverflow := flag.Bool("analytic-overflow", false, "serve requests beyond -max-inflight from the instant analytic tier (200, tier \"analytic\") instead of shedding with 429")
	flag.Float64Var(&f.breakerThreshold, "breaker-threshold", 0, "windowed measurement failure rate that trips the circuit breaker into analytic-only service (0 = no breaker)")
	flag.IntVar(&f.breakerWindow, "breaker-window", 0, "sliding window of measurement outcomes the breaker rate is computed over (default 32)")
	flag.DurationVar(&f.breakerCooldown, "breaker-cooldown", 0, "how long an open breaker waits before half-open probe measurements (default 5s)")
	flag.IntVar(&f.breakerProbes, "breaker-probes", 0, "measurements a half-open breaker admits; one success restores service (default 3)")
	flag.IntVar(&f.refineWorkers, "refine-workers", 0, "background workers measuring analytically-answered requests once budget frees up (default 1)")
	flag.StringVar(&f.peers, "peers", "", "comma-separated replica addresses forming a cluster (all replicas run the identical list; empty = standalone)")
	flag.StringVar(&f.advertise, "advertise", "", "this replica's address in -peers (required with -peers)")
	flag.IntVar(&f.replicas, "replicas", 0, "replication factor: owners per request key (default 2, capped at the peer count)")
	flag.DurationVar(&f.probeInterval, "probe-interval", 0, "peer health-check cadence; backs off exponentially while a peer is down (default 1s)")
	profile := flag.Bool("pprof", false, "serve the runtime profiles of net/http/pprof under /debug/pprof/")
	flag.Parse()

	clusterCfg, err := f.validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := autotune.DefaultOptions()
	if f.budget > 0 {
		opts.Budget = f.budget
	}
	opts.Seed = f.seed
	opts.Workers = f.workers
	opts.Retry = autotune.RetryPolicy{
		MaxAttempts:    f.measureRetries,
		BackoffBase:    f.retryBackoff,
		BackoffMax:     f.retryBackoffMax,
		NoiseThreshold: f.noiseThreshold,
		MedianK:        f.noiseMedian,
	}

	cache := autotune.NewCache()
	if f.cacheEntries > 0 || f.cacheBytes > 0 || f.cacheTTL > 0 {
		cache.SetEviction(autotune.EvictionPolicy{
			MaxEntries: f.cacheEntries, MaxBytes: f.cacheBytes, TTL: f.cacheTTL})
	}

	srv, err := tuned.New(tuned.Config{
		Cache: cache, Tune: opts,
		LayerWorkers: f.layerWorkers, Winograd: *winograd, Warm: *warm, Resume: *resume,
		BatchWindow: f.batchWindow, MaxInflight: f.maxInflight,
		StatePath: *state, SnapshotInterval: f.snapshotInterval,
		RequestTimeout: f.requestTimeout,
		Chaos: chaos.Config{Seed: *chaosSeed, FailRate: f.chaosFailRate,
			MaxConsecutive: f.chaosMaxConsecutive},
		AnalyticOverflow: *analyticOverflow,
		Breaker: autotune.BreakerConfig{Threshold: f.breakerThreshold,
			Window: f.breakerWindow, Cooldown: f.breakerCooldown, Probes: f.breakerProbes},
		RefineWorkers: f.refineWorkers,
		Cluster:       clusterCfg,
	})
	if err != nil {
		// New refuses only what the flags gave it: a configuration that
		// cannot work (-request-timeout without -resume) or a -state file it
		// cannot read.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A tuning response can legitimately take minutes (the engine runs
	// inside the request), so WriteTimeout must outlast the batch: with a
	// request timeout it is that plus slack, otherwise generous. The read
	// side is tight — requests are small JSON — so a slow or stalled client
	// cannot hold a connection open indefinitely.
	writeTimeout := 10 * time.Minute
	if f.requestTimeout > 0 {
		writeTimeout = f.requestTimeout + time.Minute
	}
	var handler http.Handler = srv
	if *profile {
		handler = withPprof(srv)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("tuned: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "tuned: shutdown: %v\n", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tuned: state flush: %v\n", err)
		os.Exit(1)
	}
	if *state != "" {
		fmt.Printf("tuned: state flushed to %s\n", *state)
	}
}

// withPprof serves net/http/pprof's handlers under /debug/pprof/ and hands
// every other path to h.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
