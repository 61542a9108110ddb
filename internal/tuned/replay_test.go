package tuned

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/models"
	"repro/internal/shapes"
)

// Replayed replies (replay.go): a body the hit lane answered is answered
// again from the bytes it wrote, while nothing it read has changed.

// replayConfig is the daemon's flagless configuration at a test budget.
func replayConfig() Config { return Config{Tune: tinyOpts(8, 3), Winograd: true, Warm: true} }

// replayZoo is the zoo as cmd/tuned receives it, and the state of a cache a
// server filled by tuning it once; tuned once per test binary.
var replayZoo = sync.OnceValues(func() ([][]byte, []byte) {
	var bodies [][]byte
	for _, f := range []struct {
		layers []autotune.NetworkLayer
		kinds  []string
	}{
		{models.AlexNet().NetworkLayers(), nil},
		{models.VGG19().NetworkLayers(), nil},
		{models.ResNet18().NetworkLayers(), nil},
		{models.SqueezeNet().NetworkLayers(), nil},
		{models.InceptionV3().NetworkLayers(), nil},
		{models.MobileNetV1().NetworkLayers(), []string{"fft", "igemm"}},
	} {
		desc := repro.DescribeNetwork(testArch.Name, f.layers)
		if f.kinds != nil {
			desc.Options = &repro.RequestOptions{Kinds: f.kinds}
		}
		body, err := json.Marshal(desc)
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, body)
	}
	srv, err := New(replayConfig())
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			panic(rec.Body.String())
		}
	}
	var state bytes.Buffer
	if err := srv.cache.Save(&state); err != nil {
		panic(err)
	}
	return bodies, state.Bytes()
})

// zooServer boots a replay-config server, with mutate applied to its config
// when given, on a cache holding the tuned zoo.
func zooServer(t *testing.T, mutate ...func(*Config)) (*Server, [][]byte) {
	t.Helper()
	bodies, state := replayZoo()
	cache := autotune.NewCache()
	if err := cache.Load(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig()
	cfg.Cache = cache
	for _, m := range mutate {
		m(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, bodies
}

// captureWriter remembers the slice of the last Write, so a test can tell a
// replay — which writes the recorded reply's own bytes — from a fresh encode.
type captureWriter struct {
	*httptest.ResponseRecorder
	last []byte
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.last = b
	return c.ResponseRecorder.Write(b)
}

// recorded returns the reply rs holds for body, nil if none.
func recorded(rs *replies, body []byte) *reply {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.byBody[string(body)]
}

// serve POSTs body to /v1/tune through srv's handler and returns the response
// body and whether it was replayed.
func serve(t *testing.T, srv *Server, body []byte) ([]byte, bool) {
	t.Helper()
	return serveAt(t, srv, "/v1/tune", &srv.replies, body)
}

// serveAt is serve on the endpoint at path, whose record set is rs.
func serveAt(t *testing.T, srv *Server, path string, rs *replies, body []byte) ([]byte, bool) {
	t.Helper()
	before := recorded(rs, body)
	cw := &captureWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(cw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if cw.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, cw.Code, cw.Body)
	}
	replayed := before != nil && len(cw.last) > 0 && &cw.last[0] == &before.out[0]
	return cw.Body.Bytes(), replayed
}

// freshAnswer is the answer to body of a standalone server that never saw
// it, configured as srv, on a copy of srv's cache as it stands.
func freshAnswer(t *testing.T, srv *Server, body []byte) []byte {
	t.Helper()
	out, _ := serve(t, freshServer(t, srv), body)
	return out
}

// freshAnalytic is freshAnswer from a server whose breaker is tripped.
func freshAnalytic(t *testing.T, srv *Server, body []byte) []byte {
	t.Helper()
	other := freshServer(t, srv)
	other.breaker.Trip()
	out, _ := serve(t, other, body)
	return out
}

// freshServer is a standalone server configured as srv on a copy of srv's
// cache as it stands.
func freshServer(t *testing.T, srv *Server) *Server {
	t.Helper()
	var state bytes.Buffer
	if err := srv.cache.Save(&state); err != nil {
		t.Fatal(err)
	}
	cache := autotune.NewCache()
	if err := cache.Load(&state); err != nil {
		t.Fatal(err)
	}
	cfg := srv.cfg
	cfg.Cache, cfg.Cluster = cache, cluster.Config{}
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	return other
}

// alexEntry is the cached direct entry of AlexNet's first layer that holds
// more than one row.
func alexEntry(t *testing.T, cache *autotune.Cache) autotune.CacheEntry {
	t.Helper()
	for _, l := range models.AlexNet().NetworkLayers() {
		if e, ok := cache.Entry(testArch.Name, autotune.Direct, l.Shape); ok && len(e.Rows) > 1 {
			return e
		}
	}
	t.Fatal("no AlexNet layer is cached with more than one row")
	return autotune.CacheEntry{}
}

// movedEntry is alexEntry with its verdict moved and no engine state.
func movedEntry(t *testing.T, cache *autotune.Cache) autotune.CacheEntry {
	t.Helper()
	e := alexEntry(t, cache)
	e.Seconds /= 100
	e.Rows = nil
	return e
}

// putUnrelated stores a valid verdict for a shape no zoo network holds.
func putUnrelated(cache *autotune.Cache) {
	cache.Put(testArch.Name, autotune.Direct,
		shapes.ConvShape{Batch: 1, Cin: 7, Cout: 9, Hin: 11, Win: 11, Hker: 3, Wker: 3, Strid: 1},
		conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1},
		autotune.Measurement{Seconds: 1})
}

// A reply recorded again under the same body replaces the one before it in
// the set's byte count: three puts count one body and one reply.
func TestReplayPutCountsARecordOnce(t *testing.T) {
	var rs replies
	body, out := []byte(`{"arch":"V100"}`), []byte("{\"verdicts\":[]}\n")
	for i := 0; i < 3; i++ {
		rs.put(body, &reply{out: out}, 7)
	}
	if want := len(body) + len(out); rs.bytes != want {
		t.Errorf("three puts of one body count %d bytes, want %d", rs.bytes, want)
	}
}

// For every zoo body: the first answer takes the full hit lane and records;
// the second is its replay, byte for byte, and equals the answer of a server
// that never saw the body.
func TestReplayMatchesFullPath(t *testing.T) {
	srv, bodies := zooServer(t)
	fresh, _ := zooServer(t)
	for i, body := range bodies {
		full, replayed := serve(t, srv, body)
		if replayed {
			t.Fatalf("zoo %d: the first answer was a replay", i)
		}
		again, replayed := serve(t, srv, body)
		if !replayed {
			t.Errorf("zoo %d: the second answer was not replayed", i)
		}
		if !bytes.Equal(again, full) {
			t.Errorf("zoo %d: replay differs from the full path:\n%s\n%s", i, again, full)
		}
		if other, _ := serve(t, fresh, body); !bytes.Equal(again, other) {
			t.Errorf("zoo %d: replay differs from a fresh server's answer", i)
		}
	}
}

// Each endpoint answers from its own record set. A forwarded envelope the
// owner answered from its cache is replayed on /v1/cluster/tune, booking the
// forward as the full path does; the same bytes POSTed to /v1/tune, and a
// recorded client body POSTed to /v1/cluster/tune, still get their 400.
func TestReplayKeepsEndpointsApart(t *testing.T) {
	srv, bodies := zooServer(t, func(cfg *Config) { cfg.Cluster = goldenCluster() })
	desc, err := repro.ParseNetworkDescription(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	forwarded, err := json.Marshal(repro.ForwardedTuneRequest{Origin: goldenPeer, Attempt: 1, Network: desc})
	if err != nil {
		t.Fatal(err)
	}
	full, replayed := serveAt(t, srv, "/v1/cluster/tune", &srv.forwardReplies, forwarded)
	if replayed {
		t.Fatal("the first forwarded answer was a replay")
	}
	again, replayed := serveAt(t, srv, "/v1/cluster/tune", &srv.forwardReplies, forwarded)
	if !replayed || !bytes.Equal(again, full) {
		t.Errorf("the forwarded envelope: replayed %t, answer unchanged %t", replayed, bytes.Equal(again, full))
	}
	serve(t, srv, bodies[0])
	if _, replayed := serve(t, srv, bodies[0]); !replayed {
		t.Error("the client body was not replayed")
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/v1/tune", forwarded}, {"/v1/cluster/tune", bodies[0]}} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s answered the other endpoint's recorded body with %d, want 400: %s", c.path, rec.Code, rec.Body)
		}
	}
	if got, want := srv.count.forwardServed.Load(), int64(2); got != want {
		t.Errorf("%d forwarded requests served, want %d", got, want)
	}
	if got, want := srv.count.requests.Load(), int64(4); got != want {
		t.Errorf("%d requests answered, want %d", got, want)
	}
}

// A write that leaves every verdict the body read as it was — a Put of an
// unrelated entry, a PutEntries rewriting a read entry with its own verdict —
// keeps the reply replaying, and the replay is a fresh server's answer.
func TestReplaySurvivesEqualWrites(t *testing.T) {
	srv, bodies := zooServer(t)
	body := bodies[0]
	serve(t, srv, body)
	same := alexEntry(t, srv.cache)
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"an unrelated Put", func() error { putUnrelated(srv.cache); return nil }},
		{"a PutEntries of an equal verdict", func() error { return srv.cache.PutEntries([]autotune.CacheEntry{same}) }},
	} {
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		out, replayed := serve(t, srv, body)
		if !replayed {
			t.Errorf("after %s: not replayed", w.name)
		}
		if want := freshAnswer(t, srv, body); !bytes.Equal(out, want) {
			t.Errorf("after %s: replay differs from a fresh server's answer", w.name)
		}
	}
}

// Under Resume, a cache whose read entry keeps its verdict but whose covered
// budget fell below the request's no longer covers it: the reply falls
// through and the search resumes. Without Resume the same state replays. The
// cache outranks the shorter entry, so the state is reached by emptying it
// and putting every entry back with that one cut.
func TestReplayFallsThroughBelowResumeBudget(t *testing.T) {
	for _, resume := range []bool{false, true} {
		srv, bodies := zooServer(t, func(cfg *Config) { cfg.Resume = resume })
		body := bodies[0]
		serve(t, srv, body)
		if _, replayed := serve(t, srv, body); !replayed {
			t.Fatalf("resume %t: the second answer was not replayed", resume)
		}
		e := alexEntry(t, srv.cache)
		e.Budget = len(e.Rows) / 2
		e.Rows = e.Rows[:e.Budget]
		entries := cacheEntries(t, srv.cache)
		for i := range entries {
			if mustKey(t, entries[i]) == mustKey(t, e) {
				entries[i] = e
			}
		}
		replaceAll(t, srv.cache, entries)
		measured := srv.Measurements()
		if _, replayed := serve(t, srv, body); replayed == resume {
			t.Errorf("resume %t: replayed %t after the covered budget fell to %d", resume, replayed, e.Budget)
		}
		if resumed := srv.Measurements() > measured; resumed != resume {
			t.Errorf("resume %t: the answer after the rewrite measured %d", resume, srv.Measurements()-measured)
		}
	}
}

// Every kind of cache write that changes what a reply read — a PutEntries, a
// Load into the live cache, an LRU-cap eviction, a TTL expiry — sends the
// next answer down the full path, and that answer is a fresh server's on a
// copy of the cache as the write left it. So are the answers after it, the
// second of them a replay. (Entries evicted or expired are tuned again, and
// that answer is not recorded: only the one after it is a hit.)
func TestReplayFollowsEachWriter(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(t *testing.T, srv *Server, bodies [][]byte)
	}{
		{"PutEntries", func(t *testing.T, srv *Server, _ [][]byte) {
			if err := srv.cache.PutEntries([]autotune.CacheEntry{movedEntry(t, srv.cache)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"Load", func(t *testing.T, srv *Server, _ [][]byte) {
			state, err := autotune.EncodeEntries([]autotune.CacheEntry{movedEntry(t, srv.cache)})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.cache.Load(bytes.NewReader(state)); err != nil {
				t.Fatal(err)
			}
		}},
		{"LRU eviction", func(t *testing.T, srv *Server, bodies [][]byte) {
			// Under the policy, the other networks' answers leave AlexNet's
			// entries the least recently used; one Put past the cap, ended
			// by Evict, evicts them.
			srv.cache.SetEviction(autotune.EvictionPolicy{MaxEntries: srv.cache.Len()})
			for _, body := range bodies[1:] {
				serve(t, srv, body)
			}
			putUnrelated(srv.cache)
			srv.cache.Evict()
			if srv.cache.Stats().Evictions == 0 {
				t.Fatal("nothing was evicted")
			}
		}},
		{"TTL expiry", func(t *testing.T, srv *Server, _ [][]byte) {
			// Installing the policy is an operation boundary: every entry
			// expires inside SetEviction.
			later := time.Now().Add(time.Hour)
			srv.cache.SetEviction(autotune.EvictionPolicy{TTL: time.Minute, Now: func() time.Time { return later }})
			if srv.cache.Stats().Evictions == 0 {
				t.Fatal("nothing expired")
			}
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			srv, bodies := zooServer(t)
			body := bodies[0]
			serve(t, srv, body)
			before, replayed := serve(t, srv, body)
			if !replayed {
				t.Fatal("the second answer was not replayed")
			}
			w.write(t, srv, bodies)
			want := freshAnswer(t, srv, body)
			after, replayed := serve(t, srv, body)
			if replayed || bytes.Equal(after, before) {
				t.Errorf("after the write: replayed %t, answer unchanged %t", replayed, bytes.Equal(after, before))
			}
			if !bytes.Equal(after, want) {
				t.Errorf("answer after the write:\n%s\nfresh server on a copy of the cache:\n%s", after, want)
			}
			for i := 0; i < 2; i++ {
				want := freshAnswer(t, srv, body)
				if again, replayed := serve(t, srv, body); (i == 1 && !replayed) || !bytes.Equal(again, want) {
					t.Errorf("answer %d after it: replayed %t, equal to a fresh answer %t", i+1, replayed, bytes.Equal(again, want))
				}
			}
		})
	}
}

// A refinement that writes refinedKeys but no cache entry still turns the
// next answer's tiers from "measured" to "refined".
func TestReplayFollowsRefinement(t *testing.T) {
	srv, bodies := zooServer(t)
	body := bodies[2]
	serve(t, srv, body)
	if _, replayed := serve(t, srv, body); !replayed {
		t.Fatal("the second answer was not replayed")
	}
	desc, err := repro.ParseNetworkDescription(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := srv.resolve(desc)
	if err != nil {
		t.Fatal(err)
	}
	save := func() []byte {
		var state bytes.Buffer
		if err := srv.cache.Save(&state); err != nil {
			t.Fatal(err)
		}
		return state.Bytes()
	}
	state := save()
	srv.refineOne(req)
	if !bytes.Equal(save(), state) {
		t.Fatal("the refinement wrote the cache; this test needs a pure refinedKeys write")
	}
	out, replayed := serve(t, srv, body)
	if replayed {
		t.Error("answered from a reply recorded before the refinement")
	}
	var resp repro.TuneResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != autotune.TierRefined.String() {
			t.Errorf("layer %s tier %q after its refinement, want refined", v.Layer, v.Tier)
		}
	}
}

// Under a TTL policy, an answer whose entries expired since it was recorded
// is not replayed: the full path finds them gone and tunes again.
func TestReplayNotAfterTTLExpiry(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Unix(1e9, 0).UnixNano())
	cache := autotune.NewCache()
	cache.SetEviction(autotune.EvictionPolicy{TTL: time.Minute,
		Now: func() time.Time { return time.Unix(0, now.Load()) }})
	cfg := replayConfig()
	cfg.Cache = cache
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, err := json.Marshal(repro.DescribeNetwork(testArch.Name, netA()))
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv, body) // tunes
	serve(t, srv, body) // records
	if _, replayed := serve(t, srv, body); !replayed {
		t.Fatal("a fresh reply was not replayed")
	}
	measured := srv.Measurements()
	now.Add(int64(2 * time.Minute))
	if _, replayed := serve(t, srv, body); replayed {
		t.Error("replayed a reply whose entries expired")
	}
	if srv.Measurements() == measured || cache.Stats().Evictions == 0 {
		t.Errorf("the answer after expiry measured %d and evicted %d, want a re-tune of expired entries",
			srv.Measurements()-measured, cache.Stats().Evictions)
	}
}

// N replays book what N full hit-lane answers book: a server that replays and
// one that is sent each body with distinct trailing whitespace (never
// replayed) end with equal /healthz and /metrics — cache hits and misses,
// requests, verdicts by tier and kind, everything but the clocks.
func TestReplayBooksLikeTheFullPath(t *testing.T) {
	srv, bodies := zooServer(t)
	plain, _ := zooServer(t)
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i, body := range bodies {
			if _, replayed := serve(t, srv, body); replayed != (r > 0) {
				t.Errorf("round %d zoo %d: replayed %t", r, i, replayed)
			}
			if _, replayed := serve(t, plain, append(body, strings.Repeat("\n", r)...)); replayed {
				t.Errorf("round %d zoo %d: a distinct body was replayed", r, i)
			}
		}
	}
	health := func(s *Server) (Health, map[string]float64) {
		url := newHarnessServer(t, s)
		h := getHealth(t, url)
		h.UptimeSeconds = 0
		m := metricSamples(t, getMetrics(t, url))
		delete(m, "tuned_uptime_seconds")
		return h, m
	}
	h, m := health(srv)
	wantH, wantM := health(plain)
	if !reflect.DeepEqual(h, wantH) {
		t.Errorf("/healthz after replays:\n%+v\nafter full-path answers:\n%+v", h, wantH)
	}
	if !reflect.DeepEqual(m, wantM) {
		t.Errorf("/metrics after replays:\n%v\nafter full-path answers:\n%v", m, wantM)
	}
	if h.Requests != rounds*int64(len(bodies)) || h.Cache.Hits == 0 {
		t.Errorf("requests %d, cache hits %d", h.Requests, h.Cache.Hits)
	}
}

// Replays racing writes that make one read verdict faster, step by step:
// every answer is the answer of one of the states the writes pass through,
// and once the writes stop the answer is the final state's, replayed.
func TestReplayUnderConcurrentWrites(t *testing.T) {
	srv, bodies := zooServer(t)
	body := bodies[0]
	first := cacheEntries(t, srv.cache)
	const steps, clients, rounds = 8, 4, 50
	states := []autotune.CacheEntry{alexEntry(t, srv.cache)}
	answers := [][]byte{nil}
	answers[0], _ = serve(t, srv, body)
	for i := 1; i < steps; i++ {
		e := states[i-1]
		e.Seconds /= 2
		if err := srv.cache.PutEntries([]autotune.CacheEntry{e}); err != nil {
			t.Fatal(err)
		}
		out, _ := serve(t, srv, body)
		states, answers = append(states, e), append(answers, out)
	}
	if bytes.Equal(answers[0], answers[steps-1]) {
		t.Fatal("the first and the last state answer alike")
	}
	replaceAll(t, srv.cache, first)

	// The writer takes the next step each time the clients have sent another
	// share of their requests.
	var served atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < steps; i++ {
			for served.Load() < int64(i*clients*rounds/steps) {
				runtime.Gosched()
			}
			if err := srv.cache.PutEntries(states[i : i+1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for c := 0; c < clients; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < rounds; r++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
				served.Add(1)
				if got := rec.Body.Bytes(); !slices.ContainsFunc(answers, func(a []byte) bool { return bytes.Equal(got, a) }) {
					t.Errorf("client %d round %d: an answer of no state: %s", c, r, got)
				}
			}
		}()
	}
	readers.Wait()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if got, replayed := serve(t, srv, body); !bytes.Equal(got, answers[steps-1]) || (i == 1 && !replayed) {
			t.Errorf("answer %d after the writes stopped: the final state's %t, replayed %t",
				i, bytes.Equal(got, answers[steps-1]), replayed)
		}
	}
}

// novelLayer is a layer no zoo network holds.
var novelLayer = repro.LayerDescription{Name: "novel", Batch: 1, Cin: 5, Hin: 13, Win: 13,
	Cout: 11, Hker: 3, Wker: 3, Stride: 1, Pad: 1, Repeat: 1}

// missBodies is AlexNet's and MobileNet's zoo bodies (the latter with extra
// kinds) with novelLayer appended, so each probe covers the zoo network's
// searches and misses at the novel layer's, and one body of novelLayer
// alone, whose probe misses at once. Each is a handful of first analytic
// scans, which -race makes slow, so the zoo's other four are left out.
func missBodies(t *testing.T, zoo [][]byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, body := range [][]byte{zoo[0], zoo[5]} {
		desc, err := repro.ParseNetworkDescription(body)
		if err != nil {
			t.Fatal(err)
		}
		desc.Layers = append(desc.Layers, novelLayer)
		out = append(out, mustMarshal(t, desc))
	}
	return append(out, mustMarshal(t, repro.NetworkDescription{Arch: testArch.Name,
		Layers: []repro.LayerDescription{novelLayer}}))
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// analyticServer is zooServer behind a dead backend with its breaker tripped
// by hand, on the clock now: a body the cache covers takes the hit lane, one
// whose probe misses is answered by the analytic tier in serveTune's
// breaker-open branch. The breaker stays open until now passes its hour of
// cooldown.
func analyticServer(t *testing.T, mutate ...func(*Config)) (*Server, [][]byte, *atomic.Int64) {
	t.Helper()
	now := new(atomic.Int64)
	now.Store(time.Unix(1e9, 0).UnixNano())
	srv, zoo := zooServer(t, append([]func(*Config){func(cfg *Config) {
		cfg.Chaos = chaos.Config{Seed: 1, FailRate: 1}
		cfg.Breaker = heldBreaker()
		cfg.Breaker.Now = func() time.Time { return time.Unix(0, now.Load()) }
	}}, mutate...)...)
	srv.breaker.Trip()
	return srv, missBodies(t, zoo), now
}

// cacheEntries is every entry of cache, as Save writes them.
func cacheEntries(t *testing.T, cache *autotune.Cache) []autotune.CacheEntry {
	t.Helper()
	var state bytes.Buffer
	if err := cache.Save(&state); err != nil {
		t.Fatal(err)
	}
	entries, err := autotune.DecodeEntries(state.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// mustKey is e's cache key.
func mustKey(t *testing.T, e autotune.CacheEntry) string {
	t.Helper()
	key, err := e.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// replaceAll leaves cache holding entries and nothing else, through writes a
// cache accepts whatever it held: every entry expires as a TTL on a test
// clock is installed, then entries are put into the emptied cache. A plain
// PutEntries would keep each held entry that outranks its replacement.
func replaceAll(t *testing.T, cache *autotune.Cache, entries []autotune.CacheEntry) {
	t.Helper()
	later := time.Now().Add(time.Hour)
	cache.SetEviction(autotune.EvictionPolicy{TTL: time.Minute, Now: func() time.Time { return later }})
	cache.SetEviction(autotune.EvictionPolicy{})
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d entries outlived their TTL", n)
	}
	if err := cache.PutEntries(entries); err != nil {
		t.Fatal(err)
	}
}

// scaledEntries is every entry of cache with its rows at factor times their
// seconds and its verdict as it was: the same keys, so Len does not move,
// and the same verdicts, so a probe reads what it read before.
func scaledEntries(t *testing.T, cache *autotune.Cache, factor float64) []autotune.CacheEntry {
	t.Helper()
	entries := cacheEntries(t, cache)
	for i := range entries {
		e := &entries[i]
		e.Rows = slices.Clone(e.Rows)
		for j := range e.Rows {
			e.Rows[j].Seconds *= factor
		}
	}
	return entries
}

// analyticTier reports the response tier of an answer.
func analyticTier(t *testing.T, out []byte) bool {
	t.Helper()
	var resp repro.TuneResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Tier == autotune.TierAnalytic.String()
}

// For every body whose probe misses while the breaker is open: the first
// answer takes the full path to the analytic tier and records; the second is
// its replay, byte for byte, and equals the answer of a tripped server that
// never saw the body.
func TestReplayAnalyticMatchesFullPath(t *testing.T) {
	srv, bodies, _ := analyticServer(t)
	for i, body := range bodies {
		full, replayed := serve(t, srv, body)
		if replayed || !analyticTier(t, full) {
			t.Fatalf("body %d: the first answer was replayed %t, analytic %t", i, replayed, analyticTier(t, full))
		}
		again, replayed := serve(t, srv, body)
		if !replayed {
			t.Errorf("body %d: the second answer was not replayed", i)
		}
		if !bytes.Equal(again, full) {
			t.Errorf("body %d: replay differs from the full path:\n%s\n%s", i, again, full)
		}
		if fresh := freshAnalytic(t, srv, body); !bytes.Equal(again, fresh) {
			t.Errorf("body %d: replay differs from a fresh server's answer:\n%s\n%s", i, again, fresh)
		}
	}
}

// N analytic replays book what N full-path analytic answers book: a server
// that replays and one sent each body with distinct trailing whitespace end
// with equal /healthz and /metrics — requests, cache hits and misses,
// verdicts by tier and kind, the refinement queue's depth and drops,
// breaker transitions, everything but the clocks. The queue is emptied
// before each round, so each round's answers enqueue their refinements.
func TestReplayAnalyticBooksLikeTheFullPath(t *testing.T) {
	srv, bodies, _ := analyticServer(t)
	plain, _, _ := analyticServer(t)
	// drain empties the refinement queue as finished refinements would, so
	// the next round's answers enqueue again.
	drain := func(s *Server) {
		s.refineMu.Lock()
		defer s.refineMu.Unlock()
		for len(s.refineCh) > 0 {
			delete(s.refineQueue, (<-s.refineCh).Key())
		}
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		drain(srv)
		drain(plain)
		for i, body := range bodies {
			if _, replayed := serve(t, srv, body); replayed != (r > 0) {
				t.Errorf("round %d body %d: replayed %t", r, i, replayed)
			}
			if _, replayed := serve(t, plain, append(body, strings.Repeat(" ", r)...)); replayed {
				t.Errorf("round %d body %d: a distinct body was replayed", r, i)
			}
		}
	}
	health := func(s *Server) (Health, map[string]float64) {
		// One refinement worker holds the first job, waiting out the
		// breaker; every other body's waits in the queue.
		waitUntil(t, "the refinement worker took its job", func() bool { return len(s.refineCh) == len(bodies)-1 })
		url := newHarnessServer(t, s)
		h := getHealth(t, url)
		h.UptimeSeconds = 0
		m := metricSamples(t, getMetrics(t, url))
		delete(m, "tuned_uptime_seconds")
		return h, m
	}
	h, m := health(srv)
	wantH, wantM := health(plain)
	if !reflect.DeepEqual(h, wantH) {
		t.Errorf("/healthz after replays:\n%+v\nafter full-path answers:\n%+v", h, wantH)
	}
	if !reflect.DeepEqual(m, wantM) {
		t.Errorf("/metrics after replays:\n%v\nafter full-path answers:\n%v", m, wantM)
	}
	if h.Requests != rounds*int64(len(bodies)) || h.AnalyticVerdicts == 0 || h.Cache.Hits == 0 || h.Cache.Misses == 0 {
		t.Errorf("requests %d, analytic verdicts %d, cache hits %d, misses %d",
			h.Requests, h.AnalyticVerdicts, h.Cache.Hits, h.Cache.Misses)
	}
}

// An analytic reply falls through as soon as one of the full path's checks
// would go another way — the breaker half-opens, the calibration factor
// moves, the missed search becomes covered, a covered prefix verdict is
// rewritten — and the answer is then the full path's. Once the breaker is
// open again and nothing else moves, the next answer is a replay.
func TestReplayAnalyticFallsThrough(t *testing.T) {
	for _, c := range []struct {
		name string
		// move changes what the full path reads, and returns whether the
		// full path still records (false: it answers from overflow).
		move func(t *testing.T, srv *Server, now *atomic.Int64) bool
	}{
		{"breaker half-opens", func(t *testing.T, srv *Server, now *atomic.Int64) bool {
			now.Add(int64(2 * time.Hour))
			return false
		}},
		{"calibration moves", func(t *testing.T, srv *Server, _ *atomic.Int64) bool {
			replaceAll(t, srv.cache, scaledEntries(t, srv.cache, 3))
			return true
		}},
		{"missed search covered", func(t *testing.T, srv *Server, _ *atomic.Int64) bool {
			desc := repro.NetworkDescription{Arch: testArch.Name, Layers: []repro.LayerDescription{novelLayer}}
			srv.cache.Put(testArch.Name, autotune.Direct, desc.NetworkLayers()[0].Shape,
				conv.Config{TileX: 1, TileY: 1, TileZ: 1, ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1},
				autotune.Measurement{Seconds: 1})
			return true
		}},
		{"prefix verdict rewritten", func(t *testing.T, srv *Server, _ *atomic.Int64) bool {
			// The verdict moves and the rows stay, so the calibration, which
			// reads only rows, does not.
			e := alexEntry(t, srv.cache)
			e.Seconds /= 100
			if err := srv.cache.PutEntries([]autotune.CacheEntry{e}); err != nil {
				t.Fatal(err)
			}
			return true
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Overflow catches the half-open breaker's request: the admission
			// budget is held, so neither it nor a refinement measures.
			srv, bodies, now := analyticServer(t, func(cfg *Config) {
				cfg.MaxInflight, cfg.AnalyticOverflow = 1, true
			})
			srv.adm.acquire(1)
			body := bodies[0]
			serve(t, srv, body)
			if _, replayed := serve(t, srv, body); !replayed {
				t.Fatal("the second answer was not replayed")
			}
			_, calBefore := srv.analyticFor(testArch)
			records := c.move(t, srv, now)
			if _, cal := srv.analyticFor(testArch); (cal != calBefore) != (c.name == "calibration moves") {
				t.Fatalf("the calibration factor moved %t", cal != calBefore)
			}
			before := recorded(&srv.replies, body)
			want := freshAnalytic(t, srv, body)
			out, replayed := serve(t, srv, body)
			if replayed || !bytes.Equal(out, want) {
				t.Errorf("after the move: replayed %t, equal to a fresh answer %t:\n%s\n%s",
					replayed, bytes.Equal(out, want), out, want)
			}
			if rerecorded := recorded(&srv.replies, body) != before; rerecorded != records {
				t.Errorf("after the move: recorded again %t, want %t", rerecorded, records)
			}
			srv.breaker.Trip()
			serve(t, srv, body)
			if again, replayed := serve(t, srv, body); !replayed || !bytes.Equal(again, want) {
				t.Errorf("with the breaker open again: replayed %t, equal to a fresh answer %t", replayed, bytes.Equal(again, want))
			}
		})
	}
}

// The analytic answers of admission overflow and of the cluster's local
// fallback depend on load and on which peers are up, so neither is recorded
// and neither is replayed, even with the breaker open.
func TestReplayNeverRecordsOverflowOrLocalFallback(t *testing.T) {
	t.Run("overflow", func(t *testing.T) {
		srv, bodies, _ := analyticServer(t, func(cfg *Config) {
			cfg.MaxInflight, cfg.AnalyticOverflow = 1, true
			cfg.Breaker = autotune.BreakerConfig{}
			cfg.Chaos = chaos.Config{}
		})
		srv.adm.acquire(1)
		for i := 0; i < 2; i++ {
			out, replayed := serve(t, srv, bodies[0])
			if replayed || !analyticTier(t, out) {
				t.Errorf("answer %d: replayed %t, analytic %t", i, replayed, analyticTier(t, out))
			}
		}
		if rp := recorded(&srv.replies, bodies[0]); rp != nil {
			t.Error("an overflow answer was recorded")
		}
	})
	t.Run("local fallback", func(t *testing.T) {
		// The other peer owns about half of all keys and is down: a body
		// it owns is answered by this replica's fallback.
		srv, bodies, _ := analyticServer(t, func(cfg *Config) {
			cfg.Cluster = goldenCluster()
			cfg.Cluster.Replicas = 1
		})
		var body []byte
		for _, b := range bodies {
			desc, err := repro.ParseNetworkDescription(b)
			if err != nil {
				t.Fatal(err)
			}
			req, err := srv.resolve(desc)
			if err != nil {
				t.Fatal(err)
			}
			if self, _ := srv.cluster.owners(req.Key()); !self {
				body = b
				break
			}
		}
		if body == nil {
			t.Fatal("this replica owns every body")
		}
		for i := 0; i < 2; i++ {
			out, replayed := serve(t, srv, body)
			if replayed || !analyticTier(t, out) {
				t.Errorf("answer %d: replayed %t, analytic %t", i, replayed, analyticTier(t, out))
			}
		}
		if rp := recorded(&srv.replies, body); rp != nil {
			t.Error("a local-fallback answer was recorded")
		}
		if got := srv.count.localFallbacks.Load(); got != 2 {
			t.Errorf("%d local fallbacks, want 2", got)
		}
	})
}

// Analytic replays racing PutEntries that move the calibration back and
// forth: on a cache whose one state-carrying entry is the fit's only sample,
// each write scales its rows or restores them, so the fit is always at one of
// two factors. Each write also makes the entry's verdict one float step
// faster, so the cache takes every one; the body reads no verdict, so only
// the factor prices it. Every answer is the answer at one of the two factors,
// and once the writes stop the answer is the final factor's, replayed.
func TestReplayAnalyticUnderConcurrentWrites(t *testing.T) {
	zoo, bodies, _ := analyticServer(t)
	srv, _, _ := analyticServer(t, func(cfg *Config) { cfg.Cache = autotune.NewCache() })
	base := alexEntry(t, zoo.cache)
	scaled := slices.Clone(base.Rows)
	for j := range scaled {
		scaled[j].Seconds *= 3
	}
	rows := [][]autotune.CachedMeasurement{base.Rows, scaled}
	// write stores base with rows[i%2] and a verdict faster than the last
	// write's; the writer goroutine and this one never write at once.
	seconds := base.Seconds
	write := func(i int) error {
		e := base
		e.Rows = rows[i%2]
		seconds = math.Nextafter(seconds, 0)
		e.Seconds = seconds
		return srv.cache.PutEntries([]autotune.CacheEntry{e})
	}
	body := bodies[len(bodies)-1]
	answers := make([][]byte, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		if err := write(i); err != nil {
			t.Fatal(err)
		}
		answers[i], _ = serve(t, srv, body)
	}
	if bytes.Equal(answers[0], answers[1]) {
		t.Fatal("the two states price the body alike")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < 50; r++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
				if got := rec.Body.Bytes(); !bytes.Equal(got, answers[0]) && !bytes.Equal(got, answers[1]) {
					t.Errorf("client %d round %d: an answer at neither factor: %s", c, r, got)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, replayed := serve(t, srv, body); !bytes.Equal(got, answers[1]) || (i == 1 && !replayed) {
			t.Errorf("answer %d after the writes stopped: the final factor's %t, replayed %t",
				i, bytes.Equal(got, answers[1]), replayed)
		}
	}
}
