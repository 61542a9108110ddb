package tuned

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/shapes"
)

// The end-to-end suite: the daemon's three load-bearing properties —
// cross-client dedup, cross-network transfer, restart replay — proved over
// real HTTP against a live handler, under -race in CI.

var testArch = memsim.V100

// tinyOpts mirrors the engine tests' small-but-real search options.
func tinyOpts(budget int, seed int64) autotune.Options {
	return autotune.Options{Budget: budget, BatchSize: 4, Walkers: 4, WalkSteps: 12, Patience: 0, Seed: seed}
}

// newTestServer boots a Server behind httptest and arranges teardown.
// With TUNED_E2E_CHAOS set to a fault rate in (0, 1), every server of the
// suite runs under seeded fault injection with the retry pipeline armed —
// the CI chaos job sets it to prove the whole e2e contract (bit-identical
// verdicts, exact measurement counts) holds on a flaky backend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg = applyE2EEnv(t, cfg)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// applyE2EEnv applies the CI environment gates to one server config — the
// shared half of newTestServer, reused by the cluster harness so every
// replica of a cluster test runs under the same chaos/degraded regime.
func applyE2EEnv(t *testing.T, cfg Config) Config {
	t.Helper()
	if env := os.Getenv("TUNED_E2E_CHAOS"); env != "" && !cfg.Chaos.Enabled() {
		rate, err := strconv.ParseFloat(env, 64)
		if err != nil || rate <= 0 || rate >= 1 {
			t.Fatalf("TUNED_E2E_CHAOS=%q: want a rate in (0, 1)", env)
		}
		cfg.Chaos = chaos.Config{Seed: 1, FailRate: rate, MaxConsecutive: 2}
		if cfg.Tune.Retry.MaxAttempts <= cfg.Chaos.MaxConsecutive {
			cfg.Tune.Retry.MaxAttempts = cfg.Chaos.MaxConsecutive + 2
		}
	}
	// With TUNED_E2E_DEGRADED set, every server of the suite additionally
	// runs with the degradation machinery armed but untriggered: analytic
	// overflow on and a breaker that cannot realistically trip. The CI
	// degraded-mode job sets it to prove armed-but-idle machinery is
	// transparent — every e2e property (bit-identical verdicts, exact
	// measurement counts, tier "measured" everywhere) must hold unchanged.
	// The one intentional behavior change is admission overflow answering
	// 200 analytic instead of 429; TestServerAdmissionControl branches on
	// the gate for exactly that.
	if degradedE2E() && !cfg.AnalyticOverflow && !cfg.Breaker.Enabled() {
		cfg.AnalyticOverflow = true
		cfg.Breaker = autotune.BreakerConfig{
			Threshold: 0.999, Window: 1 << 16, MinSamples: 1 << 16, Cooldown: time.Hour}
	}
	return cfg
}

// degradedE2E reports whether the suite runs under the CI degraded-mode
// gate (armed-but-untriggered degradation on every server).
func degradedE2E() bool { return os.Getenv("TUNED_E2E_DEGRADED") != "" }

// postTune POSTs a description and decodes the response, reporting the
// HTTP status alongside.
func postTune(t *testing.T, url string, desc repro.NetworkDescription) (repro.TuneResponse, int) {
	t.Helper()
	body, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr repro.TuneResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return tr, resp.StatusCode
}

// getHealth fetches and decodes /healthz.
func getHealth(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// countMeasurements runs TuneNetwork directly with an instrumented
// OnEvent, returning the verdicts and the fresh-measurement count — the
// ground truth the server's counters are compared against.
func countMeasurements(t *testing.T, layers []autotune.NetworkLayer, opts autotune.NetworkOptions) ([]autotune.LayerVerdict, int64) {
	t.Helper()
	var n atomic.Int64
	opts.Tune.OnEvent = func(e autotune.Event) {
		if e == autotune.EventMeasure {
			n.Add(1)
		}
	}
	verdicts, err := autotune.TuneNetwork(testArch, layers, autotune.NewCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts, n.Load()
}

// K concurrent clients POST the same ResNet-18: every response must be
// bit-identical to a direct in-process TuneNetwork call with the same
// options, and the server must have measured exactly as many fresh
// configurations as that single direct call — the wait for an identical
// request already measuring, the batcher merge and the cache's singleflight
// together collapse all K requests onto one search per layer family member,
// no matter how the requests interleave.
func TestServerConcurrentIdenticalRequests(t *testing.T) {
	const clients = 6
	opts := tinyOpts(16, 7)
	srv, ts := newTestServer(t, Config{
		Tune: opts, Winograd: true, Warm: true, BatchWindow: 100 * time.Millisecond,
	})

	layers := models.ResNet18().NetworkLayers()
	desc := repro.DescribeNetwork(testArch.Name, layers)

	var wg sync.WaitGroup
	responses := make([]repro.TuneResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, status := postTune(t, ts.URL, desc)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			responses[i] = tr
		}(i)
	}
	wg.Wait()

	// The Shared flag reports whether a verdict ran its own search here,
	// which legitimately depends on how the requests interleaved; every
	// other byte of every response must agree.
	normalize := func(tr repro.TuneResponse) repro.TuneResponse {
		out := tr
		out.Verdicts = append([]repro.VerdictDescription(nil), tr.Verdicts...)
		for i := range out.Verdicts {
			out.Verdicts[i].Shared = false
		}
		return out
	}
	for i := 1; i < clients; i++ {
		if !reflect.DeepEqual(normalize(responses[i]), normalize(responses[0])) {
			t.Fatalf("client %d response differs from client 0", i)
		}
	}

	direct, directCount := countMeasurements(t, layers,
		autotune.NetworkOptions{Tune: opts, Winograd: true, Warm: true})
	want := repro.DescribeVerdicts(direct)
	for i, v := range responses[0].Verdicts {
		got := v
		got.Shared = want[i].Shared // sharing depends on request interleaving
		if got != want[i] {
			t.Errorf("verdict %d: server %+v != direct %+v", i, v, want[i])
		}
	}
	if got := srv.Measurements(); got != directCount {
		t.Errorf("server measured %d fresh configs across %d clients, direct run measured %d",
			got, clients, directCount)
	}

	h := getHealth(t, ts.URL)
	if h.Requests != clients || h.Measurements != directCount || !h.OK {
		t.Errorf("healthz = %+v, want %d requests, %d measurements, ok", h, clients, directCount)
	}
}

// A request identical to one already measuring waits for it and is answered
// from the cache: one batch, exactly one direct run's measurements, the same
// verdicts — although the first ran alone and the twin arrived mid-sweep.
func TestServerIdenticalRequestWaitsForTheOneMeasuring(t *testing.T) {
	opts := tinyOpts(8, 3)
	opts.Workers = 1
	opts.MeasureLatency = 10 * time.Millisecond
	_, ts := newTestServer(t, Config{Tune: opts, Winograd: false, BatchWindow: time.Millisecond})
	desc := repro.DescribeNetwork(testArch.Name, netA()[:1])

	first := make(chan repro.TuneResponse, 1)
	go func() {
		tr, status := postTune(t, ts.URL, desc)
		if status != http.StatusOK {
			t.Errorf("first request: status %d", status)
		}
		first <- tr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getHealth(t, ts.URL).InflightBudget == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first request never showed up in the in-flight budget")
		}
		time.Sleep(time.Millisecond)
	}
	twin, status := postTune(t, ts.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("twin request: status %d", status)
	}
	want := <-first

	_, direct := countMeasurements(t, netA()[:1], autotune.NetworkOptions{Tune: opts})
	h := getHealth(t, ts.URL)
	if h.Batches != 1 || h.Measurements != direct || h.Requests != 2 {
		t.Errorf("batches %d, measurements %d, requests %d; want 1 batch, the direct run's %d measurements, 2 requests",
			h.Batches, h.Measurements, h.Requests, direct)
	}
	for i, v := range twin.Verdicts {
		w := want.Verdicts[i]
		w.Shared = true
		if v != w {
			t.Errorf("layer %s: twin got %+v, the first %+v", v.Layer, v, w)
		}
	}
}

// netStem is the layer the two distinct test networks share.
func netStem() autotune.NetworkLayer {
	return autotune.NetworkLayer{Name: "stem", Repeat: 1, Shape: shapes.ConvShape{
		Batch: 1, Cin: 16, Cout: 16, Hin: 28, Win: 28, Hker: 3, Wker: 3, Strid: 1, Pad: 1}}
}

func netA() []autotune.NetworkLayer {
	return []autotune.NetworkLayer{
		netStem(),
		{Name: "a1", Repeat: 2, Shape: shapes.ConvShape{
			Batch: 1, Cin: 32, Cout: 32, Hin: 14, Win: 14, Hker: 3, Wker: 3, Strid: 1, Pad: 1}},
	}
}

func netB() []autotune.NetworkLayer {
	return []autotune.NetworkLayer{
		netStem(),
		{Name: "b1", Repeat: 1, Shape: shapes.ConvShape{
			Batch: 1, Cin: 64, Cout: 64, Hin: 7, Win: 7, Hker: 3, Wker: 3, Strid: 1, Pad: 1}},
	}
}

// Two distinct networks POSTed concurrently share what they tune. On an
// idle server the first POST runs alone at once; the second either merges
// into the first's round (if it arrives before that round is flushed) or
// gathers behind it and warm-starts from the first's cache entries, which
// rank its seeds. Either way the total fresh measurements come in
// under two cold sweeps (their shared stem tunes once, not twice), and each
// network's tuned end-to-end time is no worse than its own cold sweep —
// transfer only adds information. The merge itself is pinned by
// TestBatcherGathersBehindARunningRound.
func TestServerDistinctNetworksShareTransferPool(t *testing.T) {
	opts := tinyOpts(16, 11)
	srv, ts := newTestServer(t, Config{
		Tune: opts, Winograd: true, Warm: true, BatchWindow: 300 * time.Millisecond,
	})

	cold := autotune.NetworkOptions{Tune: opts, Winograd: true}
	coldA, countA := countMeasurements(t, netA(), cold)
	coldB, countB := countMeasurements(t, netB(), cold)

	var wg sync.WaitGroup
	var respA, respB repro.TuneResponse
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()))
		if status != http.StatusOK {
			t.Errorf("net A: status %d", status)
		}
		respA = tr
	}()
	go func() {
		defer wg.Done()
		tr, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netB()))
		if status != http.StatusOK {
			t.Errorf("net B: status %d", status)
		}
		respB = tr
	}()
	wg.Wait()

	if got, coldTotal := srv.Measurements(), countA+countB; got >= coldTotal {
		t.Errorf("merged batch measured %d fresh configs, want fewer than the two cold sweeps' %d", got, coldTotal)
	}
	const tol = 1 + 1e-9
	if ca := autotune.NetworkSeconds(coldA); respA.NetworkSeconds > ca*tol {
		t.Errorf("net A tuned in batch: %.6g s/inference, worse than cold %.6g", respA.NetworkSeconds, ca)
	}
	if cb := autotune.NetworkSeconds(coldB); respB.NetworkSeconds > cb*tol {
		t.Errorf("net B tuned in batch: %.6g s/inference, worse than cold %.6g", respB.NetworkSeconds, cb)
	}
}

// Shutdown flushes the cache with engine state; a rebooted server answers
// the same request from the replayed state with zero fresh measurements,
// every verdict marked shared and bit-identical to the first run.
func TestServerRestartReplaysWithoutMeasuring(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	opts := tinyOpts(12, 5)
	layers := netA()
	desc := repro.DescribeNetwork(testArch.Name, layers)

	srv1, ts1 := newTestServer(t, Config{
		Tune: opts, Winograd: true, Warm: true, Resume: true, StatePath: state,
	})
	first, status := postTune(t, ts1.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("first boot: status %d", status)
	}
	if srv1.Measurements() == 0 {
		t.Fatal("first boot measured nothing; the replay proof below would be vacuous")
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("flush state: %v", err)
	}

	// A closed server refuses new work.
	if _, status := postTune(t, ts1.URL, desc); status != http.StatusServiceUnavailable {
		t.Errorf("closed server: status %d, want 503", status)
	}

	srv2, ts2 := newTestServer(t, Config{
		Tune: opts, Winograd: true, Warm: true, Resume: true, StatePath: state,
	})
	second, status := postTune(t, ts2.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("second boot: status %d", status)
	}
	if got := srv2.Measurements(); got != 0 {
		t.Errorf("rebooted server measured %d fresh configs, want 0 (pure replay)", got)
	}
	for i, v := range second.Verdicts {
		if !v.Shared {
			t.Errorf("verdict %d (%s) not marked shared after restart", i, v.Layer)
		}
		want := first.Verdicts[i]
		want.Shared = v.Shared // first boot tuned fresh; sharing differs by design
		if v != want {
			t.Errorf("verdict %d changed across restart: %+v != %+v", i, v, want)
		}
	}
	if second.NetworkSeconds != first.NetworkSeconds {
		t.Errorf("network seconds changed across restart: %g != %g",
			second.NetworkSeconds, first.NetworkSeconds)
	}
}

// Admission control: with the in-flight measurement budget exactly
// consumed by a slow request, a concurrent distinct request is shed with
// 429 + Retry-After, and admitted once the budget frees up.
func TestServerAdmissionControl(t *testing.T) {
	opts := tinyOpts(8, 3)
	opts.Workers = 1
	opts.MeasureLatency = 20 * time.Millisecond
	_, ts := newTestServer(t, Config{
		Tune: opts, Winograd: false, MaxInflight: 8,
	})

	descA := repro.DescribeNetwork(testArch.Name, netA()[:1])
	descB := repro.DescribeNetwork(testArch.Name, netB()[1:])

	done := make(chan int, 1)
	go func() {
		_, status := postTune(t, ts.URL, descA)
		done <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getHealth(t, ts.URL).InflightBudget == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request A never showed up in the in-flight budget")
		}
		time.Sleep(time.Millisecond)
	}

	if degradedE2E() {
		// Under the degraded-mode gate overload is served, not shed: the
		// overflow request gets an instant analytic 200 and nothing is
		// ever rejected.
		tr, status := postTune(t, ts.URL, descB)
		if status != http.StatusOK || tr.Tier != "analytic" {
			t.Fatalf("overflow under degraded gate: status %d tier %q, want 200 analytic", status, tr.Tier)
		}
		if status := <-done; status != http.StatusOK {
			t.Fatalf("request A: status %d", status)
		}
		if h := getHealth(t, ts.URL); h.Rejected != 0 {
			t.Errorf("healthz = %+v, want zero rejections under AnalyticOverflow", h)
		}
		return
	}

	body, _ := json.Marshal(descB)
	resp, err := http.Post(ts.URL+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request B while budget exhausted: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want an integer >= 1", ra)
	}

	if status := <-done; status != http.StatusOK {
		t.Fatalf("request A: status %d", status)
	}
	if _, status := postTune(t, ts.URL, descB); status != http.StatusOK {
		t.Fatalf("request B after budget freed: status %d, want 200", status)
	}
	if h := getHealth(t, ts.URL); h.Rejected != 1 || h.InflightBudget != 0 {
		t.Errorf("healthz = %+v, want exactly 1 rejection and an empty budget", h)
	}
}

// A request the cache already answers is never shed or downgraded, whatever
// the admission gate holds — it triggers no measurements, so there is nothing
// to shed. The reservation here is the documented "oversized request admitted
// alone" state (in flight beyond the cap), where a gate asked to admit even a
// zero-cost request says no.
func TestServerAdmissionCachedRequestIsFree(t *testing.T) {
	opts := tinyOpts(8, 3)
	srv, ts := newTestServer(t, Config{Tune: opts, Winograd: false, MaxInflight: 8})
	desc := repro.DescribeNetwork(testArch.Name, netA()[:1])
	if _, status := postTune(t, ts.URL, desc); status != http.StatusOK {
		t.Fatalf("cold request: status %d", status)
	}
	if !srv.adm.acquire(9) {
		t.Fatal("could not reserve the idle budget")
	}
	defer srv.adm.release(9)
	resp, status := postTune(t, ts.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("cached request under an over-full budget: status %d, want 200", status)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != "measured" {
			t.Errorf("cached layer %s answered with tier %q, want the measured verdict it holds", v.Layer, v.Tier)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 1)})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"arch":"V100",`},
		{"unknown field", `{"arch":"V100","layres":[]}`},
		{"unknown arch", `{"arch":"H100","layers":[{"cin":16,"hin":8,"cout":16,"hker":3,"pad":1}]}`},
		{"no layers", `{"arch":"V100","layers":[]}`},
		{"invalid shape", `{"arch":"V100","layers":[{"cin":16,"hin":1,"cout":16,"hker":3}]}`},
		{"trailing data", `{"arch":"V100","layers":[{"cin":16,"hin":8,"cout":16,"hker":3,"pad":1}]}{}`},
	}
	for _, c := range cases {
		if got := post(c.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, got)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/tune"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/tune: status %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/nope: status %d, want 404", resp.StatusCode)
		}
	}
}

// An oversized body is refused with 413 Request Entity Too Large on both POST
// endpoints that read one, not as a malformed request.
func TestServerOversizedBodyIs413(t *testing.T) {
	srv, err := New(Config{Tune: tinyOpts(8, 1), Cluster: goldenCluster()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range []struct {
		path string
		size int
	}{
		{"/v1/tune", 1<<20 + 1},
		{"/v1/cluster/replicate", 16<<20 + 1},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(make([]byte, c.size))))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d (%s), want 413", c.path, c.size, rec.Code, rec.Body)
		}
	}
}
