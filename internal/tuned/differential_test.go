package tuned

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
)

// diffSeeds is how many seeded operation sequences
// TestServersWithAndWithoutReplayAgree runs (4 under -short); run a few
// hundred locally with
//
//	go test ./internal/tuned -run TestServersWithAndWithoutReplayAgree -diff-seeds 200
var diffSeeds = flag.Int("diff-seeds", 8, "operation sequences TestServersWithAndWithoutReplayAgree runs")

// forget is the differential's hook: it clears srv's record sets, so its
// next answer to any body takes the full path.
func forget(srv *Server) {
	for _, rs := range []*replies{&srv.replies, &srv.forwardReplies} {
		rs.mu.Lock()
		clear(rs.byBody)
		rs.bytes = 0
		rs.mu.Unlock()
	}
}

// diffKindLists are the kind lists a differential body asks for, in the
// order drawn; each is permuted before use.
var diffKindLists = [][]string{nil, {"igemm"}, {"fft", "igemm"}, {"winograd", "igemm"}, {"winograd", "fft", "igemm"}}

// diffBodies draws a seed's pool of request bodies: the zoo's six and six
// variants of them — a window of at most three layers or the whole network,
// a permuted kind list, a budget of 6, 8 (the server's) or 12 — so the
// sequence repeats bodies, and sends different bodies of one request key.
// The zoo's implicit-GEMM and FFT body is always among them with its kinds
// permuted.
func diffBodies(t *testing.T, rng *rand.Rand, zoo [][]byte) [][]byte {
	t.Helper()
	pool := slices.Clone(zoo)
	for i := range 6 {
		src := zoo[len(zoo)-1]
		if i > 0 {
			src = zoo[rng.Intn(len(zoo))]
		}
		var d repro.NetworkDescription
		if err := json.Unmarshal(src, &d); err != nil {
			t.Fatal(err)
		}
		if i > 0 && rng.Intn(2) == 0 {
			lo := rng.Intn(len(d.Layers))
			d.Layers = d.Layers[lo:min(lo+1+rng.Intn(3), len(d.Layers))]
		}
		o := repro.RequestOptions{Budget: []int{0, 6, 8, 12}[rng.Intn(4)]}
		if d.Options != nil {
			o.Kinds = slices.Clone(d.Options.Kinds)
		}
		if i > 0 {
			o.Kinds = slices.Clone(diffKindLists[rng.Intn(len(diffKindLists))])
		}
		rng.Shuffle(len(o.Kinds), func(a, b int) { o.Kinds[a], o.Kinds[b] = o.Kinds[b], o.Kinds[a] })
		d.Options = &o
		pool = append(pool, mustMarshal(t, d))
	}
	return pool
}

// diffPush draws a replication push of one to three zoo entries, each with
// its verdict twice as fast (the join takes it), twice as slow (the join
// keeps the entry it holds) or unchanged, its engine state dropped; one push
// in six carries an entry of zero seconds, which PutEntries refuses whole.
func diffPush(rng *rand.Rand, entries []autotune.CacheEntry) []autotune.CacheEntry {
	push := make([]autotune.CacheEntry, 1+rng.Intn(3))
	for i := range push {
		e := entries[rng.Intn(len(entries))]
		e.Rows = nil
		switch rng.Intn(3) {
		case 0:
			e.Seconds /= 2
		case 1:
			e.Seconds *= 2
		}
		push[i] = e
	}
	if rng.Intn(6) == 0 {
		push[len(push)-1].Seconds = 0
	}
	return push
}

// diffMetrics is srv's /metrics samples but the uptime clock.
func diffMetrics(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := metricSamples(t, rec.Body.String())
	delete(m, "tuned_uptime_seconds")
	return m
}

// diffTTL is the TTL of a differential sequence drawn with one.
const diffTTL = time.Hour

// diffPolicy draws the eviction policy both servers of a sequence run under:
// none (nil); MaxEntries the zoo's entries + 8; MaxBytes the zoo's bytes +
// 8 times their mean; or a TTL on now, the fake clock both servers share.
func diffPolicy(rng *rand.Rand, zoo []autotune.CacheEntry, now *atomic.Int64) (string, *autotune.EvictionPolicy) {
	var size int64
	for _, e := range zoo {
		size += e.SizeBytes()
	}
	switch rng.Intn(4) {
	case 1:
		return "entries", &autotune.EvictionPolicy{MaxEntries: len(zoo) + 8}
	case 2:
		return "bytes", &autotune.EvictionPolicy{MaxBytes: size + 8*size/int64(len(zoo))}
	case 3:
		return "ttl", &autotune.EvictionPolicy{TTL: diffTTL, Now: func() time.Time { return time.Unix(0, now.Load()) }}
	}
	return "none", nil
}

// policyServer is zooServer with p, unless nil, installed before the zoo's
// state loads, so a TTL's fake clock stamps every entry.
func policyServer(t *testing.T, p *autotune.EvictionPolicy) *Server {
	t.Helper()
	if p == nil {
		srv, _ := zooServer(t)
		return srv
	}
	srv, _ := zooServer(t, func(cfg *Config) {
		_, state := replayZoo()
		cfg.Cache = autotune.NewCache()
		cfg.Cache.SetEviction(*p)
		if err := cfg.Cache.Load(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
	})
	return srv
}

// TestServersWithAndWithoutReplayAgree: a replayed reply, and what it books,
// are the full path's. Two servers on the tuned zoo's cache, under one
// eviction policy drawn per seed (diffPolicy), take one seeded sequence of
// operations — POSTs drawn from a pool of zoo bodies and variants
// (diffBodies), replication pushes (diffPush) and, under a TTL, advances of
// its fake clock — one as it runs, the other with its record sets cleared
// before every operation (forget), so it never replays. After each
// operation the reply bytes and /metrics must be equal. A policy that
// evicted nothing over the run's sequences is an error: the differential
// then never compared an eviction. Each seed is a subtest
// (-run 'TestServersWithAndWithoutReplayAgree/seed=3'); a seed that fails
// becomes a named regression test beside this one.
func TestServersWithAndWithoutReplayAgree(t *testing.T) {
	seeds := *diffSeeds
	if testing.Short() {
		seeds = min(seeds, 4)
	}
	zoo, state := replayZoo()
	entries, err := autotune.DecodeEntries(state)
	if err != nil {
		t.Fatal(err)
	}
	replays, evictions := 0, map[string]int64{}
	for seed := range int64(seeds) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			policy, r, e := diffSequence(t, seed, zoo, entries)
			replays += r
			evictions[policy] += e
		})
	}
	if !t.Failed() && replays == 0 {
		t.Errorf("%d sequences replayed nothing: the differential compared the full path with itself", seeds)
	}
	for policy, n := range evictions {
		if !t.Failed() && policy != "none" && n == 0 {
			t.Errorf("the sequences under the %s policy evicted nothing", policy)
		}
	}
	t.Logf("%d sequences, %d replays, evictions by policy %v", seeds, replays, evictions)
}

// diffSequence runs seed's sequence of 24 operations on two zoo servers and
// returns the policy drawn, how many answers the replaying server replayed
// and how many entries it evicted.
func diffSequence(t *testing.T, seed int64, zoo [][]byte, entries []autotune.CacheEntry) (string, int, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bodies := diffBodies(t, rng, zoo)
	var now atomic.Int64
	now.Store(time.Unix(1e9, 0).UnixNano())
	policy, p := diffPolicy(rng, entries, &now)
	replaying, full := policyServer(t, p), policyServer(t, p)
	replays := 0
	for op := range 24 {
		forget(full)
		what := "push"
		switch r := rng.Intn(8); {
		case r == 7 && p != nil && p.TTL > 0:
			what = "clock advance"
			now.Add(int64(diffTTL) / 2 * int64(1+rng.Intn(2)))
		case r >= 2:
			i := rng.Intn(len(bodies))
			what = fmt.Sprintf("POST body %d", i)
			got, replayed := serve(t, replaying, bodies[i])
			want, _ := serve(t, full, bodies[i])
			if replayed {
				replays++
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("policy %s, op %d, %s (replayed %t): replies differ:\n%s\n%s", policy, op, what, replayed, got, want)
			}
		default:
			push := diffPush(rng, entries)
			gotErr, wantErr := replaying.cache.PutEntries(push), full.cache.PutEntries(push)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("policy %s, op %d, push: errors %v and %v", policy, op, gotErr, wantErr)
			}
		}
		if got, want := diffMetrics(t, replaying), diffMetrics(t, full); !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %s, op %d, %s: /metrics differ:\n%v\n%v", policy, op, what, got, want)
		}
	}
	return policy, replays, replaying.cache.Stats().Evictions
}

// A replay that falls through books nothing: the full path's probe books
// the lookups once. A replication push moves one verdict of AlexNet's reply
// between two answers, so the second falls through, and /metrics then equals
// a never-replaying server's. (Seeds 0, 1, 2, 4 and 5 of
// TestServersWithAndWithoutReplayAgree found the replay's checks booking
// their cache hits on top of the probe's.)
func TestReplayFallThroughBooksOnce(t *testing.T) {
	replaying, bodies := zooServer(t)
	full, _ := zooServer(t)
	third, _ := zooServer(t)
	moved := movedEntry(t, third.cache)
	for i, srv := range []*Server{replaying, full} {
		if _, replayed := serve(t, srv, bodies[0]); replayed {
			t.Fatal("the first answer was a replay")
		}
		if err := srv.cache.PutEntries([]autotune.CacheEntry{moved}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			forget(srv)
		}
		if _, replayed := serve(t, srv, bodies[0]); replayed {
			t.Fatal("an answer whose verdict moved was replayed")
		}
	}
	if got, want := diffMetrics(t, replaying), diffMetrics(t, full); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics after a fall-through:\n%v\nafter the full path alone:\n%v", got, want)
	}
}
