package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/cluster"
)

// flagConfig is every numeric/duration flag the daemon takes, gathered for
// one startup validation pass. main binds the flags straight into its
// fields; validate rejects configurations that cannot work with a single clear
// line, before any state file is touched or port bound.
type flagConfig struct {
	budget              int
	seed                int64
	workers             int
	layerWorkers        int
	refineWorkers       int
	maxInflight         int64
	cacheEntries        int
	cacheBytes          int64
	cacheTTL            time.Duration
	batchWindow         time.Duration
	requestTimeout      time.Duration
	snapshotInterval    time.Duration
	measureRetries      int
	retryBackoff        time.Duration
	retryBackoffMax     time.Duration
	noiseThreshold      float64
	noiseMedian         int
	chaosFailRate       float64
	chaosMaxConsecutive int
	breakerThreshold    float64
	breakerWindow       int
	breakerCooldown     time.Duration
	breakerProbes       int

	peers         string
	advertise     string
	replicas      int
	probeInterval time.Duration
}

// validate checks every flag's domain and assembles the cluster
// configuration from -peers/-advertise/-replicas. The error reads as one
// line: "tuned: <what is wrong>".
func (f flagConfig) validate() (cluster.Config, error) {
	fail := func(format string, args ...any) (cluster.Config, error) {
		return cluster.Config{}, fmt.Errorf("tuned: "+format, args...)
	}
	if f.budget < 0 || f.budget > repro.MaxRequestBudget {
		return fail("-budget %d outside [0, %d]", f.budget, repro.MaxRequestBudget)
	}
	if f.maxInflight < 0 {
		return fail("-max-inflight %d is negative", f.maxInflight)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"-workers", f.workers}, {"-layer-workers", f.layerWorkers},
		{"-refine-workers", f.refineWorkers}, {"-measure-retries", f.measureRetries},
		{"-noise-median", f.noiseMedian}, {"-cache-entries", f.cacheEntries},
		{"-chaos-max-consecutive", f.chaosMaxConsecutive}, {"-breaker-window", f.breakerWindow},
		{"-breaker-probes", f.breakerProbes},
	} {
		if c.v < 0 {
			return fail("%s %d is negative", c.name, c.v)
		}
	}
	if f.cacheBytes < 0 {
		return fail("-cache-bytes %d is negative", f.cacheBytes)
	}
	for _, c := range []struct {
		name string
		v    time.Duration
	}{
		{"-cache-ttl", f.cacheTTL}, {"-batch-window", f.batchWindow},
		{"-request-timeout", f.requestTimeout}, {"-snapshot-interval", f.snapshotInterval},
		{"-retry-backoff", f.retryBackoff}, {"-retry-backoff-max", f.retryBackoffMax},
		{"-breaker-cooldown", f.breakerCooldown}, {"-probe-interval", f.probeInterval},
	} {
		if c.v < 0 {
			return fail("%s %v is negative", c.name, c.v)
		}
	}
	if f.noiseThreshold < 0 {
		return fail("-noise-threshold %g is negative", f.noiseThreshold)
	}
	if f.chaosFailRate < 0 || f.chaosFailRate >= 1 {
		return fail("-chaos-fail-rate %g outside [0, 1)", f.chaosFailRate)
	}
	if f.breakerThreshold < 0 || f.breakerThreshold > 1 {
		return fail("-breaker-threshold %g outside [0, 1]", f.breakerThreshold)
	}

	peers, err := cluster.ParsePeers(f.peers)
	if err != nil {
		return fail("-peers: %v", err)
	}
	if len(peers) == 0 {
		if f.advertise != "" {
			return fail("-advertise set without -peers")
		}
		if f.replicas != 0 {
			return fail("-replicas set without -peers")
		}
		return cluster.Config{}, nil
	}
	if f.advertise == "" {
		return fail("-peers requires -advertise (this replica's address in the list)")
	}
	ccfg := cluster.Config{Self: f.advertise, Peers: peers, Replicas: f.replicas, ProbeInterval: f.probeInterval}
	if err := ccfg.Validate(); err != nil {
		return fail("%v", err)
	}
	return ccfg, nil
}
