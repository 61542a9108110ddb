package tuned

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/models"
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

// serve POSTs body to /v1/tune through srv's handler and returns the response
// body and whether it was replayed.
func serve(t *testing.T, srv *Server, body []byte) ([]byte, bool) {
	t.Helper()
	srv.replies.mu.Lock()
	before := srv.replies.byBody[string(body)]
	srv.replies.mu.Unlock()
	cw := &captureWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(cw, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
	if cw.Code != http.StatusOK {
		t.Fatalf("status %d: %s", cw.Code, cw.Body)
	}
	replayed := before != nil && len(cw.last) > 0 && &cw.last[0] == &before.out[0]
	return cw.Body.Bytes(), replayed
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

// Only a client POST is recorded: a peer-forwarded request the owner answers
// from its cache, twice, leaves nothing to replay.
func TestReplayRecordsClientBodiesOnly(t *testing.T) {
	srv, bodies := zooServer(t, func(cfg *Config) { cfg.Cluster = goldenCluster() })
	desc, err := repro.ParseNetworkDescription(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	forwarded, err := json.Marshal(repro.ForwardedTuneRequest{Origin: goldenPeer, Attempt: 1, Network: desc})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/tune", bytes.NewReader(forwarded)))
		if rec.Code != http.StatusOK {
			t.Fatalf("forwarded request: status %d: %s", rec.Code, rec.Body)
		}
	}
	if n := len(srv.replies.byBody); n != 0 {
		t.Fatalf("%d replies recorded for forwarded requests", n)
	}
	serve(t, srv, bodies[0])
	if _, replayed := serve(t, srv, bodies[0]); !replayed {
		t.Error("the client body was not replayed")
	}
}

// A PutEntries that changes one layer's verdict changes the next answer, and
// that answer is a fresh server's on the same cache.
func TestReplayFollowsPutEntries(t *testing.T) {
	srv, bodies := zooServer(t)
	body := bodies[0]
	serve(t, srv, body)
	before, replayed := serve(t, srv, body)
	if !replayed {
		t.Fatal("the second answer was not replayed")
	}
	layer := models.AlexNet().NetworkLayers()[0].Shape
	e, ok := srv.cache.Entry(testArch.Name, autotune.Direct, layer)
	if !ok {
		t.Fatal("AlexNet's first layer is not cached")
	}
	e.Seconds /= 100
	e.GFLOPS *= 100
	e.Rows = nil
	if err := srv.cache.PutEntries([]autotune.CacheEntry{e}); err != nil {
		t.Fatal(err)
	}
	after, replayed := serve(t, srv, body)
	if replayed || bytes.Equal(after, before) {
		t.Fatalf("after a PutEntries moved a verdict: replayed %t, answer unchanged %t", replayed, bytes.Equal(after, before))
	}
	cfg := replayConfig()
	cfg.Cache = srv.cache
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if want, _ := serve(t, other, body); !bytes.Equal(after, want) {
		t.Errorf("answer after PutEntries:\n%s\nfresh server on the same cache:\n%s", after, want)
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
	gen := srv.cache.Generation()
	srv.refineOne(req)
	if g := srv.cache.Generation(); g != gen {
		t.Fatalf("the refinement wrote the cache (generation %d → %d); this test needs a pure refinedKeys write", gen, g)
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

// Replays racing writes that flip one verdict back and forth: every answer
// is the answer of one of the two states, and once the writes stop the
// answer is the final state's.
func TestReplayUnderConcurrentWrites(t *testing.T) {
	srv, bodies := zooServer(t)
	body := bodies[0]
	layer := models.AlexNet().NetworkLayers()[0].Shape
	orig, ok := srv.cache.Entry(testArch.Name, autotune.Direct, layer)
	if !ok {
		t.Fatal("AlexNet's first layer is not cached")
	}
	moved := orig
	moved.Seconds /= 100
	moved.GFLOPS *= 100
	moved.Rows = nil
	states := []autotune.CacheEntry{orig, moved}
	answers := make([][]byte, len(states))
	for i := len(states) - 1; i >= 0; i-- {
		if err := srv.cache.PutEntries(states[i : i+1]); err != nil {
			t.Fatal(err)
		}
		answers[i], _ = serve(t, srv, body)
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
			if err := srv.cache.PutEntries(states[i%2 : i%2+1]); err != nil {
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
					t.Errorf("client %d round %d: an answer of neither state: %s", c, r, got)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if err := srv.cache.PutEntries(states[1:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, _ := serve(t, srv, body); !bytes.Equal(got, answers[1]) {
			t.Errorf("answer %d after the writes stopped is not the final state's", i)
		}
	}
}
