package autotune

import (
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file bounds the cache for long-running service use. The tuning
// daemon (cmd/tuned) keeps one Cache alive for its whole lifetime while the
// key space — (arch, algorithm, shape) — is effectively unbounded in the
// millions-of-distinct-shapes regime, so the cache needs what every
// production verdict cache needs: size accounting, an LRU bound, an
// optional TTL, and counters for observability. Eviction is pure
// capacity management: a re-tuned evicted key reproduces its verdict
// bit-for-bit (the engine is deterministic), so dropping an entry can never
// change an answer, only the cost of producing it.

// entryMeta is the per-entry in-memory record: approximate retained bytes,
// the logical LRU clock tick of the last access, the wall time of the last
// access (TTL), and the entry's floor ratio, fixed when it was stored (see
// Cache.candidates). The atomics let the read-locked lookup path touch an
// entry without taking the shard's write lock.
type entryMeta struct {
	size  int64
	ratio float64
	used  atomic.Int64
	wall  atomic.Int64
}

// EvictionPolicy bounds a cache. The zero value is unbounded; any
// combination of limits may be set.
type EvictionPolicy struct {
	// MaxEntries caps the number of cached verdicts (0 = unlimited).
	MaxEntries int
	// MaxBytes caps the approximate retained bytes — entry overhead plus
	// the persisted engine state, which dominates for state-carrying
	// entries (0 = unlimited).
	MaxBytes int64
	// TTL evicts entries idle (neither read nor written) for longer than
	// this (0 = no TTL). Expiry is lazy — checked on lookup — plus
	// whatever EvictExpired sweeps the owner schedules.
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

// SetEviction installs (or replaces) the cache's eviction policy and
// enforces its limits immediately.
func (c *Cache) SetEviction(p EvictionPolicy) {
	c.policy.Store(&p)
	if p.TTL > 0 {
		// Entries inserted before any TTL policy existed carry no wall
		// stamp; date them "now" so installing a policy starts their idle
		// clock instead of expiring them retroactively.
		now := p.now().UnixNano()
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.RLock()
			for _, m := range sh.meta {
				if m.wall.Load() == 0 {
					m.wall.Store(now)
				}
			}
			sh.mu.RUnlock()
		}
	}
	c.enforce()
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
// entries dominate: a 400-measurement search persists 16 KB of rows
// against the fixed ~0.3 KiB of a verdict-only entry. A cached entry holds
// no curve (put drops it), so none is counted.
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

// enforce evicts least-recently-used entries until the policy's limits
// hold again. When a sweep is needed it batches: eviction overshoots to a
// low-water mark ~10% under the cap, so a put-heavy workload near capacity
// pays the O(n log n) LRU scan once per batch of inserts instead of once
// per insert. Concurrent enforce calls serialize on evictMu; racing puts
// during a sweep are picked up by the next one.
func (c *Cache) enforce() {
	p := c.policy.Load()
	if p == nil || (p.MaxEntries <= 0 && p.MaxBytes <= 0) {
		return
	}
	if (p.MaxEntries <= 0 || c.Len() <= p.MaxEntries) &&
		(p.MaxBytes <= 0 || c.bytes.Load() <= p.MaxBytes) {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()

	type cand struct {
		key  string
		used int64
		size int64
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
	sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })

	entryTarget, byteTarget := int64(0), int64(0)
	if p.MaxEntries > 0 {
		entryTarget = int64(p.MaxEntries) - int64(p.MaxEntries/10)
	}
	if p.MaxBytes > 0 {
		byteTarget = p.MaxBytes - p.MaxBytes/10
	}
	entries := int64(len(cands))
	bytes := c.bytes.Load()
	for _, cd := range cands {
		if (entryTarget == 0 || entries <= entryTarget) &&
			(byteTarget == 0 || bytes <= byteTarget) {
			break
		}
		if c.remove(cd.key) {
			entries--
			bytes -= cd.size
		}
	}
}

// EvictExpired sweeps out every entry idle longer than the policy TTL and
// reports how many were dropped. The service's batcher runs it after each
// batch; without a TTL it is a no-op.
func (c *Cache) EvictExpired() int {
	p := c.policy.Load()
	if p == nil || p.TTL <= 0 {
		return 0
	}
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
	n := 0
	for _, k := range stale {
		if c.remove(k) {
			n++
		}
	}
	return n
}
