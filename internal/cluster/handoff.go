package cluster

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/autotune"
)

// Handoff is the hinted-handoff queue: cache entries that should live on a
// peer that is currently unreachable, parked here until the peer rejoins.
// Entries dedup by cache key and keep the better entry (the cache's own
// CacheEntry.Supersedes), so a key re-tuned ten times during an outage
// replays once, and replay is idempotent. The queue is bounded per peer;
// beyond the bound new writes are dropped and counted — the peer catches
// up on a dropped key the next time a client asks for it (the owner serves
// from its cache and replication runs again).
type Handoff struct {
	max int

	mu     sync.Mutex
	byPeer map[string]map[string]autotune.CacheEntry

	queued   atomic.Int64
	replayed atomic.Int64
	dropped  atomic.Int64
}

// NewHandoff builds a queue bounded at maxPerPeer entries per peer.
func NewHandoff(maxPerPeer int) *Handoff {
	return &Handoff{max: maxPerPeer, byPeer: make(map[string]map[string]autotune.CacheEntry)}
}

// Queue parks entries destined for peer, or parks them again after a failed
// drain or a restart. Entries that fail validation or overflow the per-peer
// bound are dropped (counted); a queued key keeps the better entry.
func (h *Handoff) Queue(peer string, entries []autotune.CacheEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	q := h.byPeer[peer]
	if q == nil {
		q = make(map[string]autotune.CacheEntry)
		h.byPeer[peer] = q
	}
	for _, e := range entries {
		key, err := e.Key()
		old, exists := q[key]
		if err != nil || !exists && len(q) >= h.max {
			h.dropped.Add(1)
			continue
		}
		if !exists || e.Supersedes(old) {
			q[key] = e
		}
		h.queued.Add(1)
	}
}

// Take removes and returns peer's whole backlog in deterministic
// (key-sorted) order; nil when empty. The caller replays it and Queues it
// again on failure.
func (h *Handoff) Take(peer string) []autotune.CacheEntry {
	h.mu.Lock()
	q := h.byPeer[peer]
	delete(h.byPeer, peer)
	h.mu.Unlock()
	if len(q) == 0 {
		return nil
	}
	return sortedEntries(q)
}

// MarkReplayed books n entries as successfully delivered.
func (h *Handoff) MarkReplayed(n int) { h.replayed.Add(int64(n)) }

// DepthAll reports the total backlog over all peers.
func (h *Handoff) DepthAll() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, q := range h.byPeer {
		n += len(q)
	}
	return n
}

// Stats returns the lifetime counters: entries queued, entries replayed to
// rejoined peers, entries dropped (bound or validation).
func (h *Handoff) Stats() (queued, replayed, dropped int64) {
	return h.queued.Load(), h.replayed.Load(), h.dropped.Load()
}

// Snapshot returns the whole queue, peers sorted, entries key-sorted — the
// deterministic form the daemon persists alongside its cache snapshot so a
// crash does not lose hints.
func (h *Handoff) Snapshot() map[string][]autotune.CacheEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]autotune.CacheEntry, len(h.byPeer))
	for peer, q := range h.byPeer {
		if len(q) > 0 {
			out[peer] = sortedEntries(q)
		}
	}
	return out
}

func sortedEntries(q map[string]autotune.CacheEntry) []autotune.CacheEntry {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]autotune.CacheEntry, len(keys))
	for i, k := range keys {
		out[i] = q[k]
	}
	return out
}
