package tuned

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
)

// The "no byte moved" goldens: every literal below was captured from the
// commit before the daemon's internals collapsed onto one request value,
// one counter registry and one atomic writer. Ring ownership hashes the
// request key, dashboards scrape the family names, and a state directory
// outlives the binary that wrote it — none of them may shift under a
// refactor.

const (
	// goldenDesc is a three-layer request (dense 3×3, pointwise, depthwise
	// ×2) overriding budget, seed and the candidate kinds.
	goldenDesc = `{"arch":"V100","layers":[{"cin":16,"hin":8,"cout":8,"hker":3,"pad":1},` +
		`{"cin":8,"hin":8,"cout":8,"hker":1},` +
		`{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1,"groups":8,"repeat":2}],` +
		`"options":{"budget":12,"seed":5,"kinds":["fft","igemm"]}}`

	// goldenKey is that request's key on a server defaulting to winograd.
	goldenKey = "V100|12|5|true|fft,igemm" +
		"|conv[N=1 Cin=16 8x8 k=3x3 Cout=8 mu=1 pad=1 -> 8x8]" +
		"|conv[N=1 Cin=8 8x8 k=1x1 Cout=8 mu=1 pad=0 -> 8x8]" +
		"|conv[N=1 Cin=8 8x8 k=3x3 Cout=8 mu=1 pad=1 g=8 -> 8x8]"

	// goldenRefineFile is the .refine sidecar holding exactly that request.
	goldenRefineFile = `{"version":1,"jobs":[{"arch":"V100","layers":[` +
		`{"name":"layer0","batch":1,"cin":16,"hin":8,"win":8,"cout":8,"hker":3,"wker":3,"stride":1,"pad":1,"repeat":1},` +
		`{"name":"layer1","batch":1,"cin":8,"hin":8,"win":8,"cout":8,"hker":1,"wker":1,"stride":1,"repeat":1},` +
		`{"name":"layer2","batch":1,"cin":8,"hin":8,"win":8,"cout":8,"hker":3,"wker":3,"stride":1,"pad":1,"groups":8,"repeat":2}],` +
		`"options":{"budget":12,"seed":5,"winograd":true,"kinds":["fft","igemm"]}}]}`

	// goldenPeer is a peer address nothing listens on.
	goldenPeer = "http://127.0.0.1:1"

	// goldenHandoffFile is a .handoff sidecar parking one verdict-only entry
	// for goldenPeer.
	goldenHandoffFile = `{"version":1,"peers":{"` + goldenPeer + `":[{"arch":"V100","kind":"direct",` +
		`"shape":{"Batch":1,"Cin":16,"Hin":8,"Win":8,"Cout":8,"Hker":3,"Wker":3,"Stride":1,"Pad":1,"Groups":0},` +
		`"config":{"TileX":1,"TileY":1,"TileZ":1,"ThreadsX":8,"ThreadsY":8,"ThreadsZ":1,"SharedPerBlock":0,"Layout":0,"WinogradE":0},` +
		`"seconds":0.001,"gflops":10}]}}`
)

// goldenCluster is a two-peer, RF-2 membership whose other peer is down:
// this replica owns every key, and every replication parks as handoff.
func goldenCluster() cluster.Config {
	const self = "http://127.0.0.1:2"
	return cluster.Config{Self: self, Peers: []string{self, goldenPeer}, Replicas: 2,
		ProbeInterval: time.Hour}
}

// heldBreaker is a breaker config that trips only by hand and then stays
// open, so analytic answers queue for refinement and nothing drains them.
func heldBreaker() autotune.BreakerConfig {
	return autotune.BreakerConfig{Threshold: 0.999, Window: 1 << 16, MinSamples: 1 << 16, Cooldown: time.Hour}
}

func postBody(t *testing.T, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// (a) The key string is byte-for-byte the parent's. (b) A client POST, a
// peer-forwarded POST and a .refine restore of one description all resolve
// to it: the refinement queue, keyed by Key, holds one job after all three.
// The .refine file a shutdown then writes is byte-for-byte the parent's too.
func TestGoldenRequestKeyAcrossEntryPoints(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	srv, err := New(Config{Tune: tinyOpts(8, 9), Winograd: true, StatePath: state,
		Breaker: heldBreaker(), Cluster: goldenCluster()})
	if err != nil {
		t.Fatal(err)
	}
	url := newHarnessServer(t, srv)
	desc, err := repro.ParseNetworkDescription([]byte(goldenDesc))
	if err != nil {
		t.Fatal(err)
	}
	req, err := srv.resolve(desc)
	if err != nil {
		t.Fatal(err)
	}
	if got := req.Key(); got != goldenKey {
		t.Fatalf("request key moved:\n got %q\nwant %q", got, goldenKey)
	}

	srv.breaker.Trip()
	postBody(t, url+"/v1/tune", []byte(goldenDesc))
	postBody(t, url+"/v1/cluster/tune", []byte(`{"origin":"`+goldenPeer+`","attempt":1,"network":`+goldenDesc+`}`))
	if err := os.WriteFile(srv.cfg.StatePath+".refine", []byte(goldenRefineFile), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.restoreAux()

	srv.refineMu.Lock()
	var queued []string
	for k := range srv.refineQueue {
		queued = append(queued, k)
	}
	srv.refineMu.Unlock()
	if len(queued) != 1 || queued[0] != goldenKey {
		t.Errorf("three entry points queued %q, want the one key %q", queued, goldenKey)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(srv.cfg.StatePath + ".refine")
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != goldenRefineFile {
		t.Errorf(".refine bytes moved:\n got %s\nwant %s", written, goldenRefineFile)
	}
}

// (d) A state directory written by the parent boots: its .handoff backlog
// is parked again, and its .refine job is measured without a client asking.
func TestGoldenStateFilesRestore(t *testing.T) {
	boot := func(suffix, content string, cfg Config) *Server {
		cfg.StatePath = filepath.Join(t.TempDir(), "tuned.cache")
		if err := os.WriteFile(cfg.StatePath+suffix, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	clustered := boot(".handoff", goldenHandoffFile, Config{Cluster: goldenCluster()})
	if depth := len(clustered.cluster.handoff.Snapshot()[goldenPeer]); depth != 1 {
		t.Errorf("restored handoff depth %d, want 1", depth)
	}
	refining := boot(".refine", goldenRefineFile, Config{Tune: tinyOpts(8, 9), AnalyticOverflow: true})
	waitUntil(t, "restored refinement job measured", func() bool {
		return refining.count.refineDone.Load() == 1
	})
}

// metricFamilies returns the sorted # HELP / # TYPE lines of an exposition.
func metricFamilies(exposition string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# ") {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// metricSamples parses an exposition's sample lines into series → value.
func metricSamples(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// (c) The families /metrics exposes — names, types and HELP strings — are
// the parent's for a standalone, a degraded and a clustered server, and
// after a mixed scenario every integer /healthz reports equals the series
// /metrics reports for it: both read one registry.
func TestGoldenMetricsFamiliesAndHealthAgree(t *testing.T) {
	degraded := Config{Tune: tinyOpts(8, 9), Winograd: true, AnalyticOverflow: true, Breaker: heldBreaker()}
	clustered := degraded
	clustered.Cluster = goldenCluster()
	var url string
	var srv *Server
	for golden, cfg := range map[string]Config{
		"metrics_standalone.golden": {Tune: tinyOpts(8, 9), Winograd: true},
		"metrics_degraded.golden":   degraded,
		"metrics_clustered.golden":  clustered,
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		u := newHarnessServer(t, s)
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(metricFamilies(getMetrics(t, u)), "\n") + "\n"
		if got != string(want) {
			t.Errorf("%s: /metrics families moved:\n got:\n%s\nwant:\n%s", golden, got, want)
		}
		if cfg.Cluster.Enabled() {
			url, srv = u, s
		}
	}

	// Mixed scenario on the clustered+degraded server: one measured answer
	// (whose replication parks as handoff for the dead peer), then the
	// breaker trips and a second network is answered analytically and
	// queued for refinement.
	if _, code := postTune(t, url, repro.DescribeNetwork(testArch.Name, netA()[:1])); code != http.StatusOK {
		t.Fatalf("measured request: status %d", code)
	}
	waitUntil(t, "replication parked as handoff", func() bool { return srv.cluster.handoff.DepthAll() > 0 })
	srv.breaker.Trip()
	postBody(t, url+"/v1/tune", []byte(goldenDesc))

	// /healthz decodes into integers; /metrics was rendered from the same
	// atomics a moment later with nothing in flight, so they must agree.
	var h Health
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := metricSamples(t, getMetrics(t, url))
	tier := func(name string) (n float64) {
		for _, kind := range autotune.Kinds {
			n += m[`tuned_verdicts_total{tier="`+name+`",kind="`+kind.String()+`"}`]
		}
		return n
	}
	for series, health := range map[string]int64{
		"tuned_measurements_total":      h.Measurements,
		"tuned_requests_total":          h.Requests,
		"tuned_rejected_total":          h.Rejected,
		"tuned_batches_total":           h.Batches,
		"tuned_retries_total":           h.Retries,
		"tuned_quarantined_total":       h.Quarantined,
		"tuned_partial_responses_total": h.PartialResponses,
		"tuned_inflight_budget":         h.InflightBudget,
		"tuned_refine_queue_depth":      int64(h.RefineQueueDepth),
		"tuned_refine_completed_total":  h.RefinedNetworks,
		"tuned_cache_entries":           int64(h.Cache.Entries),
		"tuned_cache_bytes":             h.Cache.Bytes,
		"tuned_cache_hits_total":        h.Cache.Hits,
		"tuned_cache_misses_total":      h.Cache.Misses,
		"tuned_cache_evictions_total":   h.Cache.Evictions,
		"tuned_handoff_depth":           int64(h.Cluster.HandoffDepth),
	} {
		if got, ok := m[series]; !ok || int64(got) != health {
			t.Errorf("%s = %v (present %v), /healthz says %d", series, got, ok, health)
		}
	}
	if got := tier("analytic"); int64(got) != h.AnalyticVerdicts || got == 0 {
		t.Errorf(`tuned_verdicts_total{tier="analytic"} sums to %v, /healthz says %d (want equal, nonzero)`, got, h.AnalyticVerdicts)
	}
	if got := tier("refined"); int64(got) != h.RefinedVerdicts {
		t.Errorf(`tuned_verdicts_total{tier="refined"} sums to %v, /healthz says %d`, got, h.RefinedVerdicts)
	}
	if h.Requests != 2 || h.Measurements == 0 {
		t.Errorf("scenario did not exercise both tiers: %+v", h)
	}
}
