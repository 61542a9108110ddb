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
	"testing"

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
		e.Rows, e.Curve = nil, nil
		switch rng.Intn(3) {
		case 0:
			e.Seconds, e.GFLOPS = e.Seconds/2, e.GFLOPS*2
		case 1:
			e.Seconds, e.GFLOPS = e.Seconds*2, e.GFLOPS/2
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

// TestServersWithAndWithoutReplayAgree: a replayed reply, and what it books,
// are the full path's. Two servers on the tuned zoo's cache take one seeded
// sequence of operations — POSTs drawn from a pool of zoo bodies and
// variants (diffBodies) and replication pushes (diffPush) — one as it runs,
// the other with its record sets cleared before every operation (forget),
// so it never replays. After each operation the reply bytes and /metrics
// must be equal. Each seed is a subtest
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
	replays := 0
	for seed := range int64(seeds) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replays += diffSequence(t, seed, zoo, entries)
		})
	}
	if !t.Failed() && replays == 0 {
		t.Errorf("%d sequences replayed nothing: the differential compared the full path with itself", seeds)
	}
	t.Logf("%d sequences, %d replays", seeds, replays)
}

// diffSequence runs seed's sequence of 24 operations on two zoo servers and
// returns how many answers the replaying one replayed.
func diffSequence(t *testing.T, seed int64, zoo [][]byte, entries []autotune.CacheEntry) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bodies := diffBodies(t, rng, zoo)
	replaying, _ := zooServer(t)
	full, _ := zooServer(t)
	replays := 0
	for op := range 24 {
		forget(full)
		what := "push"
		if rng.Intn(4) > 0 {
			i := rng.Intn(len(bodies))
			what = fmt.Sprintf("POST body %d", i)
			got, replayed := serve(t, replaying, bodies[i])
			want, _ := serve(t, full, bodies[i])
			if replayed {
				replays++
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d, %s (replayed %t): replies differ:\n%s\n%s", op, what, replayed, got, want)
			}
		} else {
			push := diffPush(rng, entries)
			gotErr, wantErr := replaying.cache.PutEntries(push), full.cache.PutEntries(push)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d, push: errors %v and %v", op, gotErr, wantErr)
			}
		}
		if got, want := diffMetrics(t, replaying), diffMetrics(t, full); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d, %s: /metrics differ:\n%v\n%v", op, what, got, want)
		}
	}
	return replays
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
