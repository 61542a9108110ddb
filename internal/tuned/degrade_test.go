package tuned

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/models"
)

// The graceful-degradation e2e suite: a daemon that never refuses an
// answer. Three triggers are proved over live HTTP — a dead measurement
// backend (breaker trips, analytic-only service, half-open recovery),
// admission overload with AnalyticOverflow (instant analytic 200 instead
// of 429, background refinement upgrade), and the zero-config baseline
// (no degradation configured → every verdict tier "measured", wire format
// bit-identical to the pre-degradation daemon).

// degradedConfig arms a fast-recovering breaker over a dead injected
// backend: FailRate 1 with no consecutive cap is a backend where every
// measurement fails until the injector is suspended.
func degradedConfig() Config {
	opts := tinyOpts(8, 1)
	opts.Retry.MaxAttempts = 2
	return Config{
		Tune:     opts,
		Winograd: true,
		Chaos:    chaos.Config{Seed: 1, FailRate: 1},
		Breaker: autotune.BreakerConfig{
			Threshold: 0.5, Window: 8, MinSamples: 4,
			Cooldown: 50 * time.Millisecond, Probes: 3,
		},
	}
}

// getMetrics fetches /metrics and returns the exposition text.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// mustContain asserts one exposition line is present.
func mustContain(t *testing.T, metrics, want string) {
	t.Helper()
	if !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// The acceptance e2e: under 100%% injected measurement failure the daemon
// answers 200 with complete analytic verdicts for ResNet-18 and
// MobileNet-V1 — never 429 or 5xx — trips the breaker, reports the
// degraded state on /healthz and /metrics, and returns to measured
// verdicts via half-open probes once the injection stops.
func TestServerDegradedDeadBackendServesAnalyticAndRecovers(t *testing.T) {
	srv, ts := newTestServer(t, degradedConfig())

	networks := []repro.NetworkDescription{
		repro.DescribeNetwork(testArch.Name, models.ResNet18().NetworkLayers()),
		repro.DescribeNetwork(testArch.Name, models.MobileNetV1().NetworkLayers()),
	}
	for _, desc := range networks {
		resp, status := postTune(t, ts.URL, desc)
		if status != http.StatusOK {
			t.Fatalf("%s under dead backend: status %d, want 200", desc.Name, status)
		}
		if resp.Tier != "analytic" {
			t.Fatalf("%s: response tier %q, want analytic", desc.Name, resp.Tier)
		}
		if len(resp.Verdicts) != len(desc.Layers) {
			t.Fatalf("%s: %d verdicts for %d layers", desc.Name, len(resp.Verdicts), len(desc.Layers))
		}
		for _, v := range resp.Verdicts {
			if v.Tier != "analytic" {
				t.Fatalf("%s layer %s: tier %q, want analytic", desc.Name, v.Layer, v.Tier)
			}
			if !(v.Seconds > 0) {
				t.Fatalf("%s layer %s: non-positive estimate", desc.Name, v.Layer)
			}
		}
		if !(resp.NetworkSeconds > 0) {
			t.Fatalf("%s: non-positive network estimate", desc.Name)
		}
	}

	// The first sweep tripped the breaker; the degraded state is visible.
	// The cooldown may already have elapsed by the time we look, so the
	// breaker legitimately reads "open" or "half-open" — but never
	// "closed" while the injection stays on.
	h := getHealth(t, ts.URL)
	if h.Breaker != "open" && h.Breaker != "half-open" {
		t.Fatalf("health breaker %q after dead-backend sweep, want open/half-open", h.Breaker)
	}
	if h.AnalyticVerdicts == 0 {
		t.Fatal("health reports no analytic verdicts after analytic-only service")
	}
	if h.Rejected != 0 {
		t.Fatalf("%d requests rejected; degradation must not shed", h.Rejected)
	}
	metrics := getMetrics(t, ts.URL)
	mustContain(t, metrics, "# TYPE tuned_breaker_state gauge")
	mustContain(t, metrics, `tuned_breaker_transitions_total{state="open"}`)
	mustContain(t, metrics, `tuned_verdicts_total{tier="analytic",kind="direct"}`)

	// While the backend stays dead, every further request is a complete
	// analytic 200 — instantly (breaker open) or via the sweep-level
	// fallback (a half-open probe burst that fails and re-trips).
	if resp, status := postTune(t, ts.URL, networks[0]); status != http.StatusOK || resp.Tier != "analytic" {
		t.Fatalf("dead-backend request: status %d tier %q, want 200 analytic", status, resp.Tier)
	}

	// Outage over: suspend injection and poll until half-open probes close
	// the breaker and measured verdicts come back.
	srv.injector.SetSuspended(true)
	deadline := time.Now().Add(30 * time.Second)
	small := repro.DescribeNetwork(testArch.Name, netA()[:1])
	for {
		resp, status := postTune(t, ts.URL, small)
		if status != http.StatusOK {
			t.Fatalf("recovery request: status %d", status)
		}
		if resp.Tier == "" {
			measured := true
			for _, v := range resp.Verdicts {
				if v.Tier == "analytic" {
					measured = false
				}
			}
			if measured {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered to measured verdicts; last tier %q", resp.Tier)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := getHealth(t, ts.URL); h.Breaker != "closed" {
		t.Fatalf("health breaker %q after recovery, want closed", h.Breaker)
	}
	mustContain(t, getMetrics(t, ts.URL), `tuned_breaker_transitions_total{state="closed"}`)
}

// Overload degradation: with AnalyticOverflow set, a request beyond the
// admission budget gets an instant analytic 200 instead of a 429, and the
// background refinement queue measures it once budget frees up — a later
// re-POST serves the measured upgrade with tier "refined".
func TestServerAnalyticOverflowAndRefinement(t *testing.T) {
	opts := tinyOpts(8, 3)
	opts.Workers = 1
	opts.MeasureLatency = 20 * time.Millisecond
	srv, ts := newTestServer(t, Config{
		Tune: opts, Winograd: false, MaxInflight: 8, AnalyticOverflow: true,
	})

	descA := repro.DescribeNetwork(testArch.Name, netA()[:1])
	descB := repro.DescribeNetwork(testArch.Name, netB()[1:])

	// A occupies the whole admission budget...
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

	// ...so B overflows — and is served analytically, not shed.
	resp, status := postTune(t, ts.URL, descB)
	if status != http.StatusOK {
		t.Fatalf("overflow request: status %d, want 200 (analytic)", status)
	}
	if resp.Tier != "analytic" {
		t.Fatalf("overflow response tier %q, want analytic", resp.Tier)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != "analytic" {
			t.Fatalf("overflow layer %s: tier %q, want analytic", v.Layer, v.Tier)
		}
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("request A: status %d", status)
	}
	if h := getHealth(t, ts.URL); h.Rejected != 0 {
		t.Fatalf("%d rejected; AnalyticOverflow must never shed", h.Rejected)
	}

	// The refinement queue measures B in the background; once it has, a
	// re-POST serves the measured verdict from the cache with tier
	// "refined". A re-POST racing ahead of the worker runs (or joins) the
	// measured search itself — tier "measured" — so poll until the upgrade
	// lands.
	deadline = time.Now().Add(30 * time.Second)
	for {
		resp, status := postTune(t, ts.URL, descB)
		if status != http.StatusOK {
			t.Fatalf("re-POST: status %d", status)
		}
		refined := resp.Tier == ""
		for _, v := range resp.Verdicts {
			if v.Tier != "refined" || !v.Shared {
				refined = false
			}
		}
		if refined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refinement never upgraded the analytic answer; last tier %q", resp.Tier)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := getHealth(t, ts.URL); h.RefinedNetworks == 0 || h.RefinedVerdicts == 0 {
		t.Fatalf("health after refinement: networks %d verdicts %d, want > 0",
			h.RefinedNetworks, h.RefinedVerdicts)
	}
	_ = srv
}

// Zero-config equivalence: with no degradation configured the daemon's
// wire format carries tier "measured" on every verdict, no top-level tier,
// no breaker field on /healthz — and the analytic machinery stays cold.
func TestServerZeroConfigTiersMeasured(t *testing.T) {
	if degradedE2E() {
		t.Skip("asserts unarmed wire format; the degraded gate arms every server")
	}
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 1), Winograd: true})
	resp, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Tier != "" {
		t.Fatalf("response tier %q, want empty", resp.Tier)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != "measured" {
			t.Fatalf("layer %s: tier %q, want measured", v.Layer, v.Tier)
		}
	}
	h := getHealth(t, ts.URL)
	if h.Breaker != "" {
		t.Fatalf("health breaker %q on an undegraded server, want empty", h.Breaker)
	}
	if h.AnalyticVerdicts != 0 || h.RefinedVerdicts != 0 {
		t.Fatal("analytic counters nonzero on an undegraded server")
	}
}

// The /metrics exposition: every family the daemon reports is present on a
// plain server, the degradation families appear exactly when configured,
// and counters reflect served traffic.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 1)})
	if _, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()[:1])); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	m := getMetrics(t, ts.URL)
	for _, want := range []string{
		"tuned_requests_total 1",
		"tuned_measurements_total",
		"tuned_rejected_total 0",
		`tuned_verdicts_total{tier="measured",kind="direct"}`,
		`tuned_verdicts_total{tier="analytic",kind="direct"} 0`,
		`tuned_verdicts_total{tier="measured",kind="fft"} 0`,
		`tuned_verdicts_total{tier="measured",kind="igemm"} 0`,
		"tuned_cache_entries",
		"tuned_inflight_budget 0",
		"tuned_snapshot_age_seconds -1",
		"# TYPE tuned_requests_total counter",
		"# TYPE tuned_uptime_seconds gauge",
	} {
		mustContain(t, m, want)
	}
	// A plain server has no breaker and no refinement queue: those families
	// must be absent, keeping the exposition honest. (Under the degraded
	// gate every server is armed, so absence does not apply.)
	if !degradedE2E() {
		for _, absent := range []string{"tuned_breaker_state", "tuned_refine_queue_depth"} {
			if strings.Contains(m, absent) {
				t.Errorf("/metrics exposes %q without degradation configured", absent)
			}
		}
	}

	// A degraded server exposes both families.
	_, ts2 := newTestServer(t, Config{Tune: tinyOpts(8, 1),
		AnalyticOverflow: true,
		Breaker:          autotune.BreakerConfig{Threshold: 0.5}})
	m2 := getMetrics(t, ts2.URL)
	mustContain(t, m2, "tuned_breaker_state 0")
	mustContain(t, m2, "tuned_refine_queue_depth 0")
	mustContain(t, m2, "tuned_refine_completed_total 0")
}

// The kind dimension of the verdict counters: a request that widens the
// per-layer candidate set via options.kinds gets each layer's chosen kind
// recorded under its own label, and the count of the winning kind's series
// matches the verdicts served.
func TestServerKindLabeledVerdictMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 1)})
	desc := repro.DescribeNetwork(testArch.Name, netA()[1:])
	desc.Options = &repro.RequestOptions{Kinds: []string{"igemm", "fft"}}
	resp, status := postTune(t, ts.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Verdicts) != 1 {
		t.Fatalf("%d verdicts, want 1", len(resp.Verdicts))
	}
	m := getMetrics(t, ts.URL)
	chosen := resp.Verdicts[0].Kind
	mustContain(t, m, `tuned_verdicts_total{tier="measured",kind="`+chosen+`"} 1`)
	// Every kind series exists even at zero — the grid is pre-declared.
	for _, kind := range []string{"direct", "winograd", "fft", "igemm"} {
		mustContain(t, m, `tuned_verdicts_total{tier="analytic",kind="`+kind+`"}`)
	}
}

// Engine-level fallback inside an otherwise admitted request: no breaker,
// no overflow — just a dead backend and a request timeout configured. The
// sweep's failed searches fill in analytically and the response is still a
// complete 200.
func TestServerAnalyticFallbackFillsDeadSearches(t *testing.T) {
	opts := tinyOpts(8, 1)
	opts.Retry.MaxAttempts = 2
	_, ts := newTestServer(t, Config{
		Tune:           opts,
		Chaos:          chaos.Config{Seed: 1, FailRate: 1},
		RequestTimeout: 30 * time.Second, // arms degradation; never fires here
		Resume:         true,             // New refuses a request timeout without it
	})
	resp, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()))
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if resp.Tier != "analytic" {
		t.Fatalf("response tier %q, want analytic", resp.Tier)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != "analytic" {
			t.Fatalf("layer %s: tier %q, want analytic", v.Layer, v.Tier)
		}
	}
}

// The analytic calibration follows every cache write, not the entry count:
// after every zoo entry expires and comes back with its rows at three times
// their seconds, Len has not moved, and the next analytic answer is priced at
// the factor a fresh fit reads off the rewritten rows.
func TestAnalyticCalibrationFollowsRewrites(t *testing.T) {
	srv, bodies, _ := analyticServer(t)
	body := bodies[len(bodies)-1]
	before := freshAnalytic(t, srv, body)
	if out, _ := serve(t, srv, body); !bytes.Equal(out, before) {
		t.Fatalf("the first analytic answer:\n%s\na fresh server's:\n%s", out, before)
	}
	n := srv.cache.Len()
	replaceAll(t, srv.cache, scaledEntries(t, srv.cache, 3))
	if srv.cache.Len() != n {
		t.Fatalf("the rewrite moved Len from %d to %d", n, srv.cache.Len())
	}
	want := freshAnalytic(t, srv, body)
	if bytes.Equal(want, before) {
		t.Fatal("the rewrite did not move a fresh server's answer")
	}
	if out, _ := serve(t, srv, body); !bytes.Equal(out, want) {
		t.Errorf("the analytic answer after the rewrite:\n%s\na fresh server's:\n%s", out, want)
	}
}
