package autotune_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
)

// evictOp is one operation of the eviction property: a sweep, a push of
// entries, or an advance of the fake clock.
type evictOp struct {
	sweep   *sweepRequest
	push    []autotune.CacheEntry
	advance time.Duration
}

// evictTTL is the TTL of the property's TTL policy.
const evictTTL = time.Minute

// drawEvictOps draws seed's sequence of 10 operations: sweeps drawn with
// drawSweepRequest; pushes of one to four of pool's entries, each with its
// verdict twice as fast, twice as slow or unchanged; and, with ttl, advances
// of the fake clock by a third of the TTL, two thirds or all of it.
func drawEvictOps(seed int64, pool []autotune.CacheEntry, ttl bool) []evictOp {
	rng := rand.New(rand.NewSource(seed))
	deck := zooAndNovelDeck()
	ops := make([]evictOp, 10)
	for i := range ops {
		switch r := rng.Intn(4); {
		case r == 3 && ttl:
			ops[i].advance = evictTTL / 3 * time.Duration(1+rng.Intn(3))
		case r == 0:
			ops[i].push = make([]autotune.CacheEntry, 1+rng.Intn(4))
			for j := range ops[i].push {
				e := pool[rng.Intn(len(pool))]
				switch rng.Intn(3) {
				case 0:
					e.Seconds /= 2
				case 1:
					e.Seconds *= 2
				}
				ops[i].push[j] = e
			}
		default:
			req := drawSweepRequest(rng.Int63(), deck)
			ops[i].sweep = &req
		}
	}
	return ops
}

// evictState is what the property compares after an operation.
type evictState struct {
	saved []byte
	stats autotune.CacheStats
}

// runEvictOps runs ops on a fresh cache under p, its Now a fake clock the
// ops advance, sweeping at the given layer and measurement workers, and
// returns the cache's state after each operation and its Evict.
func runEvictOps(t *testing.T, p autotune.EvictionPolicy, ops []evictOp, workers, tuneWorkers int) []evictState {
	t.Helper()
	var now atomic.Int64
	now.Store(time.Unix(1e9, 0).UnixNano())
	p.Now = func() time.Time { return time.Unix(0, now.Load()) }
	cache := autotune.NewCache()
	cache.SetEviction(p)
	states := make([]evictState, len(ops))
	for i, op := range ops {
		switch {
		case op.sweep != nil:
			opts := op.sweep.opts
			opts.Workers, opts.Tune.Workers = workers, tuneWorkers
			if _, err := autotune.TuneNetwork(laneArch, op.sweep.layers, cache, opts); err != nil {
				t.Fatalf("op %d at workers=%d/%d: %v", i, workers, tuneWorkers, err)
			}
		case op.push != nil:
			if err := cache.PutEntries(op.push); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		default:
			now.Add(int64(op.advance))
		}
		cache.Evict()
		var buf bytes.Buffer
		if err := cache.Save(&buf); err != nil {
			t.Fatal(err)
		}
		states[i] = evictState{buf.Bytes(), cache.Stats()}
	}
	return states
}

// TestEvictionIsAFunctionOfTheOperationSequence: a bounded cache's contents
// are a function of its operation sequence, not of the schedule of the
// concurrent searches inside an operation. Under each policy — MaxEntries,
// MaxBytes, a TTL on a fake clock — two caches take one seeded sequence of
// operations (drawEvictOps), each ended by Evict: one sweeps at one worker,
// the other at (Workers, Tune.Workers) (1, 1), (2, 4) and (8, 8). After
// every operation the two must save the same bytes and report equal Stats.
// A policy that evicts nothing in a sequence fails it: the sequence then
// tested nothing.
func TestEvictionIsAFunctionOfTheOperationSequence(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	// The pushes draw from the entries of one cold sweep.
	var pool bytes.Buffer
	seedCache := autotune.NewCache()
	tune := autotune.DefaultOptions()
	tune.Budget = 48
	if _, err := autotune.TuneNetwork(laneArch, zooFixtures()[2].layers[:4], seedCache, autotune.NetworkOptions{Tune: tune}); err != nil {
		t.Fatal(err)
	}
	if err := seedCache.Save(&pool); err != nil {
		t.Fatal(err)
	}
	entries, err := autotune.DecodeEntries(pool.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		policy autotune.EvictionPolicy
	}{
		{"entries", autotune.EvictionPolicy{MaxEntries: 16}},
		{"bytes", autotune.EvictionPolicy{MaxBytes: 52 << 10}},
		{"ttl", autotune.EvictionPolicy{TTL: evictTTL}},
	} {
		for seed := range int64(seeds) {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				ops := drawEvictOps(seed, entries, c.policy.TTL > 0)
				want := runEvictOps(t, c.policy, ops, 1, 1)
				if n := want[len(want)-1].stats.Evictions; n == 0 {
					t.Fatalf("the sequence evicted nothing under %+v", c.policy)
				}
				for _, w := range [][2]int{{1, 1}, {2, 4}, {8, 8}} {
					got := runEvictOps(t, c.policy, ops, w[0], w[1])
					for i := range ops {
						if got[i].stats != want[i].stats || !bytes.Equal(got[i].saved, want[i].saved) {
							t.Fatalf("workers=%d/%d, after op %d: Stats %+v, want %+v; saved bytes equal %t",
								w[0], w[1], i, got[i].stats, want[i].stats, bytes.Equal(got[i].saved, want[i].saved))
						}
					}
				}
				t.Logf("%d operations, %d evictions, %d entries at the end",
					len(ops), want[len(want)-1].stats.Evictions, want[len(want)-1].stats.Entries)
			})
		}
	}
}
