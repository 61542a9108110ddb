package tuned

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
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

// The cache-hit fast lane: a request the cache fully answers is served
// inline by serveTune — before the breaker, admission and the batcher — and
// everything else keeps the ordinary path.

// A hit really is inline: with a two-second batch window a replay still
// answers at once, and neither the batch nor the measurement counter moves.
func TestServerCachedRequestSkipsBatchWindow(t *testing.T) {
	opts := tinyOpts(8, 3)
	layers := netA()
	cache := autotune.NewCache()
	if _, err := autotune.TuneNetwork(testArch, layers, cache,
		autotune.NetworkOptions{Tune: opts, Winograd: true, Warm: true}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache, Tune: opts, Winograd: true, Warm: true,
		BatchWindow: 2 * time.Second})
	before := getHealth(t, ts.URL)

	start := time.Now()
	resp, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, layers))
	if took := time.Since(start); status != http.StatusOK || took > 500*time.Millisecond {
		t.Fatalf("replay: status %d after %v, want 200 well inside the 2s batch window", status, took)
	}
	for _, v := range resp.Verdicts {
		if !v.Shared || v.Tier != "measured" {
			t.Errorf("layer %s: shared %t tier %q, want a shared measured verdict", v.Layer, v.Shared, v.Tier)
		}
	}
	after := getHealth(t, ts.URL)
	if after.Batches != before.Batches || after.Measurements != before.Measurements {
		t.Errorf("replay ran a batch: batches %d→%d, measurements %d→%d",
			before.Batches, after.Batches, before.Measurements, after.Measurements)
	}
	if after.Requests != before.Requests+1 {
		t.Errorf("requests %d→%d, want the replay counted", before.Requests, after.Requests)
	}
}

// The measuring twin: a cold request to an idle server finds no round in
// flight, so it runs at once rather than waiting out the two-second window
// for company that cannot come — one batch, and it measures.
func TestServerIdleRequestSkipsBatchWindow(t *testing.T) {
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 3), Winograd: true, Warm: true,
		BatchWindow: 2 * time.Second})
	before := getHealth(t, ts.URL)

	start := time.Now()
	_, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()[:1]))
	if took := time.Since(start); status != http.StatusOK || took > 500*time.Millisecond {
		t.Fatalf("cold request: status %d after %v, want 200 well inside the 2s batch window", status, took)
	}
	after := getHealth(t, ts.URL)
	if after.Batches != before.Batches+1 || after.Measurements <= before.Measurements {
		t.Errorf("cold request: batches %d→%d, measurements %d→%d, want one batch that measures",
			before.Batches, after.Batches, before.Measurements, after.Measurements)
	}
}

// Admission accounting follows Resume: an entry persisted at budget 8 is
// resumed by a budget-40 request, which may measure 32 more — so it reserves
// 32, is batched, and measures.
func TestRequestCostChargesResumableRemainder(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tune: tinyOpts(8, 3), Winograd: false, Resume: true})
	desc := repro.DescribeNetwork(testArch.Name, netA()[:1])
	if _, status := postTune(t, ts.URL, desc); status != http.StatusOK {
		t.Fatalf("budget-8 request: status %d", status)
	}
	desc.Options = &repro.RequestOptions{Budget: 40}
	req, err := srv.resolve(desc)
	if err != nil {
		t.Fatal(err)
	}
	if cost := req.Cost(srv); cost != 32 {
		t.Errorf("Cost = %d for a budget-40 request over an entry persisted at 8, want 32", cost)
	}
	before := getHealth(t, ts.URL)
	if _, status := postTune(t, ts.URL, desc); status != http.StatusOK {
		t.Fatalf("budget-40 request: status %d", status)
	}
	after := getHealth(t, ts.URL)
	if after.Batches != before.Batches+1 || after.Measurements <= before.Measurements {
		t.Errorf("resuming request: batches %d→%d, measurements %d→%d, want one batch that measures",
			before.Batches, after.Batches, before.Measurements, after.Measurements)
	}
	if cost := req.Cost(srv); cost != 0 {
		t.Errorf("Cost = %d once the entry is persisted at the requested budget, want 0", cost)
	}
}

// Admission accounting reads the sweep's own plan: on an empty cache a
// request costs one full budget per search autotune.Searches lists for it,
// whatever the candidate kinds, and has no entries to replicate yet.
func TestRequestCostCountsPlannedSearches(t *testing.T) {
	resnet := repro.DescribeNetwork(testArch.Name, models.ResNet18().NetworkLayers())
	for _, kinds := range [][]autotune.Kind{nil, {autotune.Winograd}, {autotune.FFT, autotune.ImplicitGEMM}} {
		for _, winograd := range []bool{false, true} {
			srv, _ := newTestServer(t, Config{Tune: tinyOpts(8, 3), Winograd: winograd, Kinds: kinds})
			req, err := srv.resolve(resnet)
			if err != nil {
				t.Fatal(err)
			}
			searches := autotune.Searches(testArch, req.layers,
				autotune.NetworkOptions{Winograd: winograd, Kinds: kinds})
			if cost, want := req.Cost(srv), int64(len(searches)*8); cost != want {
				t.Errorf("kinds %v winograd %t: Cost = %d, want %d searches x budget 8 = %d",
					kinds, winograd, cost, len(searches), want)
			}
			if entries := req.Entries(srv); len(entries) != 0 {
				t.Errorf("kinds %v winograd %t: %d entries from an empty cache", kinds, winograd, len(entries))
			}
		}
	}
}

// An open breaker must not replace measured verdicts the cache holds with
// estimates; a request with any uncovered search still goes analytic.
func TestServerOpenBreakerStillServesCachedVerdicts(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tune: tinyOpts(8, 3), Winograd: true,
		Breaker: autotune.BreakerConfig{Threshold: 0.5, Cooldown: time.Hour}})
	cached := repro.DescribeNetwork(testArch.Name, netA())
	want, status := postTune(t, ts.URL, cached)
	if status != http.StatusOK {
		t.Fatalf("cold request: status %d", status)
	}
	srv.breaker.Trip()

	got, status := postTune(t, ts.URL, cached)
	if status != http.StatusOK || got.Tier != "" {
		t.Fatalf("cached request under an open breaker: status %d tier %q, want a measured 200", status, got.Tier)
	}
	for i, v := range got.Verdicts {
		w := want.Verdicts[i]
		w.Shared = true
		if v != w {
			t.Errorf("layer %s: %+v under an open breaker, %+v before it tripped", v.Layer, v, w)
		}
	}
	if h := getHealth(t, ts.URL); h.RefineQueueDepth != 0 || h.AnalyticVerdicts != 0 {
		t.Errorf("cached request was degraded: refine queue %d, analytic verdicts %d", h.RefineQueueDepth, h.AnalyticVerdicts)
	}

	// netB shares only its stem with the cache: one miss, so the whole
	// request is answered analytically, as before.
	miss, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netB()))
	if status != http.StatusOK || miss.Tier != "analytic" {
		t.Errorf("request with a miss under an open breaker: status %d tier %q, want 200 analytic", status, miss.Tier)
	}
}

// churnNets overlap pairwise, so a replay of one races the fresh tune of a
// shape another just had evicted.
func churnNets() [][]autotune.NetworkLayer {
	c1 := autotune.NetworkLayer{Name: "c1", Repeat: 1, Shape: shapes.ConvShape{
		Batch: 1, Cin: 32, Cout: 64, Hin: 14, Win: 14, Hker: 1, Wker: 1, Strid: 1}}
	return [][]autotune.NetworkLayer{netA(), netB(), {netA()[1], netB()[1], c1}}
}

// Replays racing fresh tunes of overlapping shapes, under an eviction policy
// tight enough to evict mid-run: every answer is a 200 carrying the
// deterministic verdicts, whether the probe found everything, lost an entry
// to eviction half-way (the request is then tuned, not failed) or found
// nothing.
func TestServerFastLaneUnderEvictionChurn(t *testing.T) {
	opts := tinyOpts(8, 3)
	nets := churnNets()
	want := make([][]repro.VerdictDescription, len(nets))
	for i, layers := range nets {
		verdicts, _ := countMeasurements(t, layers, autotune.NetworkOptions{Tune: opts, Winograd: true})
		want[i] = repro.DescribeVerdicts(verdicts)
	}

	cache := autotune.NewCache()
	// The three networks hold 7 distinct searches between them, one more
	// than fits: every round evicts, and about five replays in six still find
	// nets[0] whole.
	cache.SetEviction(autotune.EvictionPolicy{MaxEntries: 6, TTL: 40 * time.Millisecond})
	_, ts := newTestServer(t, Config{Cache: cache, Tune: opts, Winograd: true,
		BatchWindow: 2 * time.Millisecond})

	const clients, rounds = 4, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 0 // clients 0 and 1 replay nets[0]
				if c >= 2 {
					n = 1 + (c+r)%2 // clients 2 and 3 keep tuning its relatives
				}
				resp, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, nets[n]))
				if status != http.StatusOK {
					t.Errorf("client %d round %d: status %d", c, r, status)
					continue
				}
				for i, v := range resp.Verdicts {
					w := want[n][i]
					w.Shared = v.Shared // depends on who searched
					if v != w {
						t.Errorf("client %d round %d layer %s: %+v, want %+v", c, r, v.Layer, v, w)
					}
				}
			}
		}()
	}
	wg.Wait()
	h := getHealth(t, ts.URL)
	if h.Cache.Evictions == 0 {
		t.Error("nothing was evicted; the churn this test exists for did not happen")
	}
	if h.Requests != clients*rounds {
		t.Errorf("requests = %d, want %d", h.Requests, clients*rounds)
	}
}

// Clustered: a replay forwarded to its owner is answered from the owner's
// cache and pushes nothing — it wrote no entry — while the fresh tune before
// it replicated as ever.
func TestClusterCachedReplayDoesNotReplicate(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	owners := h.ownersOf(desc)
	client := h.nonOwnerOf(owners)
	primary, secondary := h.servers[owners[0]], h.servers[owners[1]]

	if _, code := postTune(t, h.addrs[client], desc); code != http.StatusOK {
		t.Fatalf("fresh tune: status %d", code)
	}
	waitUntil(t, "the fresh tune's replication push", func() bool {
		return primary.count.pushedEntries.Load() > 0 && secondary.count.mergedEntries.Load() > 0
	})
	pushed, merged := primary.count.pushedEntries.Load(), secondary.count.mergedEntries.Load()
	pushedSeries := fmt.Sprintf("tuned_replicate_pushed_entries_total %d", pushed)
	mustContain(t, getMetrics(t, h.addrs[owners[0]]), pushedSeries)

	resp, code := postTune(t, h.addrs[client], desc)
	if code != http.StatusOK {
		t.Fatalf("forwarded replay: status %d", code)
	}
	for _, v := range resp.Verdicts {
		if !v.Shared {
			t.Errorf("layer %s not served from the owner's cache", v.Layer)
		}
	}
	if got := primary.count.forwardServed.Load(); got != 2 {
		t.Errorf("primary served %d forwarded requests, want 2", got)
	}
	primary.cluster.pushWG.Wait()
	mustContain(t, getMetrics(t, h.addrs[owners[0]]), pushedSeries)
	if got := secondary.count.mergedEntries.Load(); got != merged {
		t.Errorf("secondary merged %d entries after the replay, %d before it", got, merged)
	}
}

// benchBody is a zoo request as cmd/tuned would receive it, at a budget that
// keeps the benchmark's set-up short — what a hit costs does not depend on
// the budget its entries were tuned with.
func benchBody(b *testing.B, layers []autotune.NetworkLayer, kinds []string) []byte {
	b.Helper()
	desc := repro.DescribeNetwork(testArch.Name, layers)
	desc.Options = &repro.RequestOptions{Budget: 16, Kinds: kinds}
	body, err := json.Marshal(desc)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// novelBodies is 24 three-layer networks sharing no shape with the zoo (odd
// channel counts) or with each other.
func novelBodies(b *testing.B) [][]byte {
	var out [][]byte
	for n := 0; n < 24; n++ {
		var layers []autotune.NetworkLayer
		for l := 0; l < 3; l++ {
			k := []int{1, 3, 5}[l]
			ch := 8*(n+1) + 1
			layers = append(layers, autotune.NetworkLayer{Name: fmt.Sprintf("n%d.l%d", n, l), Repeat: 1,
				Shape: shapes.ConvShape{Batch: 1, Cin: ch, Cout: ch + l, Hin: 14, Win: 14,
					Hker: k, Wker: k, Strid: 1, Pad: k / 2}})
		}
		out = append(out, benchBody(b, layers, nil))
	}
	return out
}

// BenchmarkServeHit is the serve path's latency budget for a fully cached
// request: POST /v1/tune through Server.ServeHTTP, on a daemon configured as
// cmd/tuned with no flags (Winograd, Warm, 20ms batch window), one op per
// zoo replay in rotation. zoo-cache and zoo+24-novel-cache differ only in
// how much else the cache holds, so their ratio is the O(cache) creep of a
// hit; both are answered from recorded replies. after-write writes one
// unrelated entry before each op, as traffic with writes between replays
// does; the replies read no verdict it moves, so every op still replays, and
// the write's own two allocations count in its allocs/op. moved flips the
// verdict of one entry the op's body reads before each op, so every op takes
// the full hit lane — parse, plan, probe, encode — and records its reply
// again.
func BenchmarkServeHit(b *testing.B) {
	srv, err := New(Config{Winograd: true, Warm: true, BatchWindow: 20 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	zoo := [][]byte{
		benchBody(b, models.AlexNet().NetworkLayers(), nil),
		benchBody(b, models.VGG19().NetworkLayers(), nil),
		benchBody(b, models.ResNet18().NetworkLayers(), nil),
		benchBody(b, models.SqueezeNet().NetworkLayers(), nil),
		benchBody(b, models.InceptionV3().NetworkLayers(), nil),
		benchBody(b, models.MobileNetV1().NetworkLayers(), []string{"fft", "igemm"}),
	}
	replay := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(zoo[i%len(zoo)])
		}
	}
	for _, body := range zoo {
		post(body)
	}
	b.Run("zoo-cache", replay)
	b.Run("after-write", func(b *testing.B) {
		b.ReportAllocs()
		unrelated := shapes.ConvShape{Batch: 1, Cin: 7, Cout: 9, Hin: 11, Win: 11, Hker: 3, Wker: 3, Strid: 1}
		for i := 0; i < b.N; i++ {
			srv.cache.Put(testArch.Name, autotune.Direct, unrelated, conv.Config{}, autotune.Measurement{Seconds: 1})
			post(zoo[i%len(zoo)])
		}
	})
	// Per zoo body, its first layer's direct verdict and the same verdict at
	// twice the time; before each op, moved writes the one its body did not
	// read last.
	type flip struct {
		shape shapes.ConvShape
		cfg   conv.Config
		m     [2]autotune.Measurement
		at    int
	}
	flips := make([]flip, len(zoo))
	for j, body := range zoo {
		desc, err := repro.ParseNetworkDescription(body)
		if err != nil {
			b.Fatal(err)
		}
		f := &flips[j]
		f.shape = desc.NetworkLayers()[0].Shape
		var ok bool
		if f.cfg, f.m[0], ok = srv.cache.Get(testArch.Name, autotune.Direct, f.shape); !ok {
			b.Fatalf("zoo %d: first layer not cached", j)
		}
		f.m[1] = autotune.Measurement{Seconds: 2 * f.m[0].Seconds}
	}
	b.Run("moved", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := &flips[i%len(zoo)]
			f.at ^= 1
			srv.cache.Put(testArch.Name, autotune.Direct, f.shape, f.cfg, f.m[f.at])
			post(zoo[i%len(zoo)])
		}
	})
	for _, body := range novelBodies(b) {
		post(body)
	}
	b.Run("zoo+24-novel-cache", replay)
}

// BenchmarkServeAnalytic is the serve path's cost for a request the analytic
// tier answers while the breaker stays open: POST /v1/tune through
// Server.ServeHTTP on a daemon configured as cmd/tuned with no flags, behind
// a dead backend with its breaker tripped, one op per zoo network in
// rotation. The cache is empty, so every probe misses at its first search.
// replayed answers from recorded replies. full moves the refinement epoch
// before each op, which empties the record set, so every op takes the full
// path — parse, resolve, probe, price, encode — and records its reply again.
func BenchmarkServeAnalytic(b *testing.B) {
	srv, err := New(Config{Winograd: true, Warm: true, BatchWindow: 20 * time.Millisecond,
		Chaos:   chaos.Config{Seed: 1, FailRate: 1},
		Breaker: autotune.BreakerConfig{Threshold: 0.5, Cooldown: time.Hour}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.breaker.Trip()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	zoo := [][]byte{
		benchBody(b, models.AlexNet().NetworkLayers(), nil),
		benchBody(b, models.VGG19().NetworkLayers(), nil),
		benchBody(b, models.ResNet18().NetworkLayers(), nil),
		benchBody(b, models.SqueezeNet().NetworkLayers(), nil),
		benchBody(b, models.InceptionV3().NetworkLayers(), nil),
		benchBody(b, models.MobileNetV1().NetworkLayers(), []string{"fft", "igemm"}),
	}
	for _, body := range zoo {
		post(body)
	}
	b.Run("replayed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(zoo[i%len(zoo)])
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.refineEpoch.Add(1)
			post(zoo[i%len(zoo)])
		}
	})
}
