package autotune

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file bounds the cache for long-running service use. The tuning
// daemon (cmd/tuned) keeps one Cache alive for its whole lifetime while the
// key space — (arch, algorithm, shape) — is effectively unbounded in the
// millions-of-distinct-shapes regime, so the cache needs what every
// production verdict cache needs: size accounting, an LRU bound, an
// optional TTL, and counters for observability.
//
// Eviction is a function of the operation sequence, not of goroutine
// timing, as long as operations run one at a time. An operation — a sweep
// round of the daemon, a Load, a PutEntries — ends at a boundary, Evict.
// Everything one operation stores or books shares the LRU tick, which only
// Evict advances, so the concurrent searches of one round touch their
// entries alike in any order. Evict drops the entries idle past the TTL,
// then, over a cap, evicts in (tick, key) order to a low-water mark ~10 %
// under it. Between boundaries a bound may be exceeded by the entries the
// running operation adds. Operations that overlap share no such guarantee:
// in the daemon a replication push or a refinement sweep may end (and
// advance the tick) in the middle of a round, which then spans two ticks.
//
// Eviction changes no cold answer: a cold re-tune of an evicted key
// reproduces its verdict bit for bit (the engine is deterministic). A warm
// re-tune need not: a warm search seeds from the cached verdicts of its kind
// (Cache.candidates), a set the eviction changed, so the key can come back
// with another verdict, a slower one included.

// entryMeta is the per-entry in-memory record: approximate retained bytes,
// the LRU tick of the operation that last touched the entry, the wall time of
// the last access (TTL), and the entry's floor ratio, fixed when it was
// stored (see Cache.candidates). The atomics let the read-locked lookup path
// touch an entry without taking the shard's write lock.
type entryMeta struct {
	size  int64
	ratio float64
	used  atomic.Int64
	wall  atomic.Int64
}

// EvictionPolicy bounds a cache. The zero value is unbounded; any
// combination of limits may be set. The limits hold at every operation
// boundary (Evict), which trims an exceeded cap to ~10 % under it; within
// an operation the entries it adds may exceed them.
type EvictionPolicy struct {
	// MaxEntries caps the number of cached verdicts (0 = unlimited).
	MaxEntries int
	// MaxBytes caps the approximate retained bytes — entry overhead plus
	// the persisted engine state, which dominates for state-carrying
	// entries (0 = unlimited).
	MaxBytes int64
	// TTL evicts entries idle (neither read nor written) for longer than
	// this (0 = no TTL). A lookup reads an entry past it as absent and
	// drops it; Evict drops every such entry.
	TTL time.Duration
	// Now overrides the wall clock (tests). nil means time.Now.
	Now func() time.Time
}

func (p *EvictionPolicy) now() time.Time {
	if p != nil && p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

func (c *Cache) nowNanos() int64 {
	return c.policy.Load().now().UnixNano()
}

// SetEviction installs (or replaces) the cache's eviction policy. It is an
// operation boundary: the new limits hold when it returns.
func (c *Cache) SetEviction(p EvictionPolicy) {
	c.policy.Store(&p)
	c.Evict()
}

// CacheStats is a point-in-time accounting snapshot, exported by the
// service's /healthz.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats reports the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:   c.Len(),
		Bytes:     c.bytes.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Per-entry size model: struct overhead plus the variable-length state.
// The constants approximate the in-memory footprint (struct sizes, map
// bucket share, JSON field slack is ignored); the point of the accounting
// is a stable, monotone measure for MaxBytes, not heap-exact byte counts.
const (
	entryFixedBytes = 256
	rowBytes        = int64(unsafe.Sizeof(CachedMeasurement{}))
)

// SizeBytes estimates the retained bytes of one entry. State-carrying
// entries dominate: a 400-measurement search persists 12.8 KB of rows
// against the fixed ~0.3 KiB of a verdict-only entry.
func (e CacheEntry) SizeBytes() int64 {
	return entryFixedBytes + int64(len(e.Arch)) + int64(len(e.Kind)) + int64(len(e.Rows))*rowBytes
}

// remove deletes one entry, keeping the byte accounting and eviction
// counter consistent, and reports whether the key was held.
func (c *Cache) remove(key string) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	m, ok := sh.meta[key]
	if ok {
		delete(sh.entries, key)
		delete(sh.meta, key)
		c.bytes.Add(-m.size)
	}
	sh.mu.Unlock()
	if ok {
		c.writes.Add(1)
		c.evictions.Add(1)
	}
	return ok
}

// Evict ends an operation and reports how many entries it dropped: every
// entry idle past the policy's TTL, then, if MaxEntries or MaxBytes is
// exceeded, entries in (tick, key) order until each cap holds with ~10 %
// to spare. The low-water mark lets a cache held at its cap pay the
// O(n log n) ranking once per tenth of its capacity inserted, not once per
// operation; under the caps the size half returns without a scan. Evict
// then advances the LRU tick, so the next operation's stores and booked
// lookups rank after this one's. The daemon runs it at the end of every
// sweep round and refinement sweep; Load, PutEntries, RecoverFile and
// SetEviction run it themselves. Concurrent calls serialize on evictMu.
func (c *Cache) Evict() int {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	defer c.clock.Add(1)
	p := c.policy.Load()
	if p == nil {
		return 0
	}
	n := 0
	if p.TTL > 0 {
		cutoff := p.now().UnixNano() - int64(p.TTL)
		var stale []string
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.RLock()
			for k, m := range sh.meta {
				if m.wall.Load() <= cutoff {
					stale = append(stale, k)
				}
			}
			sh.mu.RUnlock()
		}
		for _, k := range stale {
			if c.remove(k) {
				n++
			}
		}
	}
	maxEntries, maxBytes := int64(p.MaxEntries), p.MaxBytes
	over := func(entries, bytes int64) bool {
		return (maxEntries > 0 && entries > maxEntries) || (maxBytes > 0 && bytes > maxBytes)
	}
	if !over(int64(c.Len()), c.bytes.Load()) {
		return n
	}
	type cand struct {
		key        string
		used, size int64
	}
	var cands []cand
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, m := range sh.meta {
			cands = append(cands, cand{k, m.used.Load(), m.size})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.used, b.used), strings.Compare(a.key, b.key))
	})
	maxEntries -= maxEntries / 10
	maxBytes -= maxBytes / 10
	entries, bytes := int64(len(cands)), c.bytes.Load()
	for _, cd := range cands {
		if !over(entries, bytes) {
			break
		}
		if c.remove(cd.key) {
			n++
			entries--
			bytes -= cd.size
		}
	}
	return n
}
