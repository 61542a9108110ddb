package tuned

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
	"repro/internal/models"
	"repro/internal/shapes"
)

// The clustered e2e suite: N real replicas on real listeners, requests
// proxied between them over real HTTP, replicas killed mid-sweep and
// rebooted fresh. The acceptance property is the replica-loss chaos proof:
// with 3 replicas at replication factor 2, killing any one mid-sweep yields
// zero client-visible errors, the killed replica rejoins and drains its
// peers' hinted handoff to zero, and a repeated request lands on the
// rejoined replica's replicated cache with zero fresh measurements. The CI
// cluster job runs this suite under -race with TUNED_E2E_CHAOS set, so the
// proof holds on a flaky measurement backend too.

// clusterHarness runs n replicas as real http.Servers on real ports —
// httptest is avoided deliberately: its Close waits for handlers, while a
// killed replica must drop mid-request like a crashed process.
type clusterHarness struct {
	t         *testing.T
	addrs     []string // advertise addresses, http://127.0.0.1:port
	hostports []string
	cfgs      []Config
	servers   []*Server
	https     []*http.Server

	mu    sync.Mutex
	alive []bool

	// hung[i] set makes replica i accept requests and answer none, /healthz
	// included, until the caller hangs up or cleanup closes release.
	hung     []atomic.Bool
	release  chan struct{}
	inflight []atomic.Int64 // requests inside replica i's handler
}

// newClusterHarness boots n replicas sharing one peer list. mutate, when
// non-nil, adjusts each replica's daemon config before boot (same config on
// every replica, as a real deployment would run).
func newClusterHarness(t *testing.T, n int, ccfg cluster.Config, mutate func(i int, cfg *Config)) *clusterHarness {
	t.Helper()
	h := &clusterHarness{t: t}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		h.hostports = append(h.hostports, ln.Addr().String())
		h.addrs = append(h.addrs, "http://"+ln.Addr().String())
	}
	ccfg.Peers = h.addrs
	if ccfg.ProbeInterval == 0 {
		ccfg.ProbeInterval = 20 * time.Millisecond
	}
	if ccfg.ProbeBackoffMax == 0 {
		ccfg.ProbeBackoffMax = 100 * time.Millisecond
	}
	h.alive = make([]bool, n)
	h.hung, h.release, h.inflight = make([]atomic.Bool, n), make(chan struct{}), make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		cc := ccfg
		cc.Self = h.addrs[i]
		cfg := Config{Tune: tinyOpts(12, 5), Winograd: true, Warm: true, Cluster: cc}
		if mutate != nil {
			mutate(i, &cfg)
		}
		cfg = applyE2EEnv(t, cfg)
		h.cfgs = append(h.cfgs, cfg)
		h.servers = append(h.servers, nil)
		h.https = append(h.https, nil)
		h.boot(i, listeners[i])
	}
	t.Cleanup(func() {
		close(h.release)
		for i := range h.servers {
			h.mu.Lock()
			alive := h.alive[i]
			h.mu.Unlock()
			if alive {
				h.kill(i)
			}
		}
	})
	return h
}

func (h *clusterHarness) boot(i int, ln net.Listener) {
	h.t.Helper()
	srv, err := New(h.cfgs[i])
	if err != nil {
		h.t.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.inflight[i].Add(1)
		defer h.inflight[i].Add(-1)
		if h.hung[i].Load() {
			select {
			case <-h.release:
			case <-r.Context().Done():
			}
			return
		}
		srv.ServeHTTP(w, r)
	})}
	h.mu.Lock()
	h.servers[i] = srv
	h.https[i] = hs
	h.alive[i] = true
	h.mu.Unlock()
	go hs.Serve(ln)
}

// kill emulates a replica crash: the listener and every open connection
// drop immediately (in-flight requests on it die mid-response), then the
// dead instance's background loops are stopped so the test stays leak- and
// race-clean. The Server instance is discarded — rejoin boots a fresh one.
func (h *clusterHarness) kill(i int) {
	h.t.Helper()
	h.mu.Lock()
	hs, srv := h.https[i], h.servers[i]
	h.alive[i] = false
	h.mu.Unlock()
	hs.Close()
	srv.Close()
}

// restart rejoins replica i: a fresh Server (fresh cache unless the config
// carries a StatePath — crash semantics) on the same advertised port.
func (h *clusterHarness) restart(i int) {
	h.t.Helper()
	var ln net.Listener
	var err error
	// The just-released port can straggle briefly; retry the bind.
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", h.hostports[i])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		h.t.Fatalf("rebind %s: %v", h.hostports[i], err)
	}
	h.boot(i, ln)
}

// ownersOf resolves which replicas own a request, primary first.
func (h *clusterHarness) ownersOf(desc repro.NetworkDescription) []int {
	h.t.Helper()
	srv := h.servers[0]
	req, err := srv.resolve(desc)
	if err != nil {
		h.t.Fatal(err)
	}
	var owners []int
	for _, addr := range srv.cluster.ring.Owners(req.Key(), srv.cluster.cfg.Replicas) {
		for i, a := range h.addrs {
			if a == addr {
				owners = append(owners, i)
			}
		}
	}
	return owners
}

// nonOwnerOf returns a replica index outside owners.
func (h *clusterHarness) nonOwnerOf(owners []int) int {
	h.t.Helper()
	for i := range h.servers {
		owned := false
		for _, o := range owners {
			if o == i {
				owned = true
			}
		}
		if !owned {
			return i
		}
	}
	h.t.Fatal("no non-owner replica")
	return -1
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A request POSTed to a replica that does not own its key is proxied to the
// owner, answered measured, and the produced cache entries are replicated
// to the secondary owner — which then serves the identical request from
// cache with zero fresh measurements of its own.
func TestClusterForwardsToOwnerAndReplicates(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	owners := h.ownersOf(desc)
	client := h.nonOwnerOf(owners)
	primary, secondary := owners[0], owners[1]

	resp, code := postTune(t, h.addrs[client], desc)
	if code != http.StatusOK {
		t.Fatalf("forwarded request: status %d", code)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != autotune.TierMeasured.String() {
			t.Errorf("layer %s tier %q, want measured", v.Layer, v.Tier)
		}
	}
	if got := h.servers[client].count.forwarded.Load(); got != 1 {
		t.Errorf("client forwarded %d requests, want 1", got)
	}
	if got := h.servers[primary].count.forwardServed.Load(); got != 1 {
		t.Errorf("primary served %d forwarded requests, want 1", got)
	}
	if n := h.servers[client].Measurements(); n != 0 {
		t.Errorf("non-owner measured %d times", n)
	}

	// Replication is async; once the secondary has merged the push it must
	// serve the identical request without a single fresh measurement.
	waitUntil(t, "secondary merged the replication push", func() bool {
		return h.servers[secondary].count.mergedEntries.Load() > 0
	})
	resp2, code := postTune(t, h.addrs[secondary], desc)
	if code != http.StatusOK {
		t.Fatalf("replica-local request: status %d", code)
	}
	for _, v := range resp2.Verdicts {
		if !v.Shared {
			t.Errorf("layer %s not served shared from the replicated cache", v.Layer)
		}
	}
	if n := h.servers[secondary].Measurements(); n != 0 {
		t.Errorf("secondary measured %d times despite replication", n)
	}

	// The peer table and the cluster series are visible.
	health := getHealth(t, h.addrs[client])
	if health.Cluster == nil || len(health.Cluster.Peers) != 2 || health.Cluster.ReplicationFactor != 2 {
		t.Fatalf("healthz cluster block = %+v", health.Cluster)
	}
	for _, p := range health.Cluster.Peers {
		if !p.Up {
			t.Errorf("peer %s down in a healthy cluster", p.Addr)
		}
	}
	m := getMetrics(t, h.addrs[client])
	mustContain(t, m, "tuned_forwarded_total 1")
	mustContain(t, m, `tuned_peer_up{peer="`+h.addrs[primary]+`"} 1`)
	mustContain(t, m, "tuned_handoff_depth 0")
	mp := getMetrics(t, h.addrs[primary])
	mustContain(t, mp, "tuned_forward_served_total 1")
	mustContain(t, mp, "tuned_replicate_pushed_entries_total")
}

// An owner keeps replaying a body after another network's fresh tune, run on
// that network's other owner, replicates into its cache: no verdict the
// reply read has moved. A non-owner's forward of the body is replayed at the
// owner too. Replays book what full-path answers book: the owner's cache
// hits and misses, requests and forwards served equal those of a cluster sent
// the same traffic with distinct whitespace, which it never replays.
func TestClusterReplaySurvivesReplication(t *testing.T) {
	play := func(replay bool) map[string]float64 {
		h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
		desc := repro.DescribeNetwork(testArch.Name, netA())
		owners := h.ownersOf(desc)
		p, n := owners[0], h.nonOwnerOf(owners)
		owner := h.servers[p]
		body, err := json.Marshal(desc)
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		post := func(addr, path string, b []byte) {
			t.Helper()
			if !replay {
				b = append(slices.Clone(b), strings.Repeat("\n", sent)...)
			}
			sent++
			resp, err := http.Post(addr+path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s%s: status %d", addr, path, resp.StatusCode)
			}
		}
		// kept reports whether rs still holds rp under key, as a replay leaves
		// it: a full-path answer would have recorded a new reply.
		kept := func(rs *replies, key []byte, rp *reply) bool {
			return !replay || (rp != nil && recorded(rs, key) == rp)
		}

		post(h.addrs[p], "/v1/tune", body) // the fresh tune
		post(h.addrs[p], "/v1/tune", body) // a hit, recorded
		rp := recorded(&owner.replies, body)

		var other repro.NetworkDescription
		q := -1
		for k := 0; q < 0; k++ {
			if k == 64 {
				t.Fatal("no one-layer network found that the owner co-owns")
			}
			other = repro.DescribeNetwork(testArch.Name, []autotune.NetworkLayer{{Name: "other", Repeat: 1,
				Shape: shapes.ConvShape{Batch: 1, Cin: 24 + 8*k, Cout: 24, Hin: 14, Win: 14, Hker: 3, Wker: 3, Strid: 1, Pad: 1}}})
			if o := h.ownersOf(other); slices.Contains(o, p) {
				q = o[0] + o[1] - p
			}
		}
		if _, code := postTune(t, h.addrs[q], other); code != http.StatusOK {
			t.Fatalf("the other network's tune: status %d", code)
		}
		waitUntil(t, "the other network's replication into the owner", func() bool {
			return owner.count.mergedEntries.Load() > 0
		})
		post(h.addrs[p], "/v1/tune", body)
		if !kept(&owner.replies, body, rp) {
			t.Error("the owner did not replay the body after the replication")
		}

		// The forward: through the non-owner, or, with distinct whitespace,
		// as the envelope the non-owner relays.
		parsed, err := repro.ParseNetworkDescription(body)
		if err != nil {
			t.Fatal(err)
		}
		envelope, err := json.Marshal(repro.ForwardedTuneRequest{Origin: h.addrs[n], Attempt: 1, Network: parsed})
		if err != nil {
			t.Fatal(err)
		}
		forward := func() {
			if replay {
				post(h.addrs[n], "/v1/tune", body)
			} else {
				post(h.addrs[p], "/v1/cluster/tune", envelope)
			}
		}
		forward()
		fr := recorded(&owner.forwardReplies, envelope)
		forward()
		if !kept(&owner.forwardReplies, envelope, fr) {
			t.Error("the owner did not replay the non-owner's forward")
		}

		all := metricSamples(t, getMetrics(t, h.addrs[p]))
		booked := make(map[string]float64)
		for _, name := range []string{"tuned_cache_hits_total", "tuned_cache_misses_total",
			"tuned_requests_total", "tuned_forward_served_total"} {
			booked[name] = all[name]
		}
		return booked
	}
	got, want := play(true), play(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the owner after replays booked %v; after full-path answers %v", got, want)
	}
	if got["tuned_forward_served_total"] != 2 || got["tuned_cache_hits_total"] == 0 {
		t.Errorf("the owner booked %v, want 2 forwards served and cache hits", got)
	}
}

// A replica never serves a worse verdict than one it held. The owner that
// answered a network receives, on POST /v1/cluster/replicate, an envelope
// holding a worse entry for a key the answer read: it keeps its own, so its
// state does not move by a byte and the next identical POST is the recorded
// reply, replayed. An envelope holding a better entry still moves the answer.
func TestClusterReplayKeepsBetterVerdict(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	p := h.ownersOf(desc)[0]
	owner := h.servers[p]
	body, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, b []byte) []byte {
		t.Helper()
		resp, err := http.Post(h.addrs[p]+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", path, resp.StatusCode, err, out)
		}
		return out
	}
	push := func(e autotune.CacheEntry) {
		t.Helper()
		env, err := autotune.EncodeEntries([]autotune.CacheEntry{e})
		if err != nil {
			t.Fatal(err)
		}
		post("/v1/cluster/replicate", env)
	}
	save := func() []byte {
		t.Helper()
		var state bytes.Buffer
		if err := owner.cache.Save(&state); err != nil {
			t.Fatal(err)
		}
		return state.Bytes()
	}

	post("/v1/tune", body) // the fresh tune
	hit := post("/v1/tune", body)
	rp := recorded(&owner.replies, body)
	if rp == nil {
		t.Fatal("the hit was not recorded")
	}
	held, ok := owner.cache.Entry(testArch.Name, autotune.Direct, netA()[1].Shape)
	if !ok {
		t.Fatal("the owner holds no entry for the network's layer")
	}
	state := save()

	worse := held
	worse.Seconds = held.Seconds * 2
	push(worse)
	if !bytes.Equal(save(), state) {
		t.Error("a push of a worse entry moved the owner's state")
	}
	if out := post("/v1/tune", body); !bytes.Equal(out, hit) || recorded(&owner.replies, body) != rp {
		t.Errorf("after the worse push: the recorded reply %t, replayed %t",
			bytes.Equal(out, hit), recorded(&owner.replies, body) == rp)
	}

	better := held
	better.Seconds = held.Seconds / 100
	push(better)
	if bytes.Equal(save(), state) {
		t.Error("a push of a better entry left the owner's state as it was")
	}
	if out := post("/v1/tune", body); bytes.Equal(out, hit) {
		t.Error("a push of a better entry did not move the answer")
	}
}

// The acceptance chaos proof. Three replicas, replication factor 2: the
// primary owner of a ResNet-18 sweep is killed mid-sweep while clients keep
// POSTing to a surviving non-owner. Required outcome: zero client-visible
// errors (every response 200, every verdict tier measured/refined/
// analytic), the killed replica rejoins and the survivors drain their
// hinted handoff to zero, and the rejoined replica then serves the repeated
// request from its replicated cache with zero fresh measurements.
func TestClusterReplicaLossMidSweepZeroClientErrors(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2},
		func(i int, cfg *Config) {
			// Stretch the sweep so the kill lands mid-flight.
			cfg.Tune = tinyOpts(12, 3)
			cfg.Tune.MeasureLatency = 2 * time.Millisecond
		})
	resnet := repro.DescribeNetwork(testArch.Name, models.ResNet18().NetworkLayers())
	owners := h.ownersOf(resnet)
	client := h.nonOwnerOf(owners)
	primary, secondary := owners[0], owners[1]

	// Concurrent clients: the ResNet sweep plus a second distinct network,
	// all through the surviving non-owner replica.
	type outcome struct {
		resp repro.TuneResponse
		code int
		name string
	}
	results := make(chan outcome, 3)
	post := func(name string, d repro.NetworkDescription) {
		resp, code := postTune(t, h.addrs[client], d)
		results <- outcome{resp, code, name}
	}
	go post("resnet-1", resnet)
	go post("resnet-2", resnet)
	go post("netB", repro.DescribeNetwork(testArch.Name, netB()))

	time.Sleep(80 * time.Millisecond) // let the sweep start on the owner
	h.kill(primary)

	for i := 0; i < 3; i++ {
		out := <-results
		if out.code != http.StatusOK {
			t.Fatalf("%s: client-visible error: status %d", out.name, out.code)
		}
		for _, v := range out.resp.Verdicts {
			switch v.Tier {
			case autotune.TierMeasured.String(), autotune.TierRefined.String(), autotune.TierAnalytic.String():
			default:
				t.Errorf("%s: layer %s has tier %q", out.name, v.Layer, v.Tier)
			}
		}
	}

	// The secondary owner completed the failed-over sweep; its replication
	// push to the dead primary must have parked as hinted handoff.
	waitUntil(t, "secondary sees the primary down", func() bool {
		return !h.servers[secondary].cluster.membership.Up(h.addrs[primary])
	})
	waitUntil(t, "handoff queued for the dead primary", func() bool {
		return len(h.servers[secondary].cluster.handoff.Snapshot()[h.addrs[primary]]) > 0
	})

	// Rejoin: a fresh instance (fresh cache — crash semantics) on the same
	// address. The survivors' probes notice and drain the handoff to zero.
	h.restart(primary)
	waitUntil(t, "handoff drained to the rejoined primary", func() bool {
		_, replayed, _ := h.servers[secondary].cluster.handoff.Stats()
		return replayed > 0 && len(h.servers[secondary].cluster.handoff.Snapshot()[h.addrs[primary]]) == 0
	})
	m := getMetrics(t, h.addrs[secondary])
	mustContain(t, m, "tuned_handoff_depth 0")

	// The rejoined replica owns the key again and serves the repeat from
	// the replicated entries alone: zero fresh measurements, all shared.
	resp, code := postTune(t, h.addrs[primary], resnet)
	if code != http.StatusOK {
		t.Fatalf("repeat on rejoined primary: status %d", code)
	}
	for _, v := range resp.Verdicts {
		if !v.Shared {
			t.Errorf("layer %s not served from the replicated cache", v.Layer)
		}
		if v.Tier != autotune.TierMeasured.String() && v.Tier != autotune.TierRefined.String() {
			t.Errorf("layer %s tier %q after rejoin", v.Layer, v.Tier)
		}
	}
	if n := h.servers[primary].Measurements(); n != 0 {
		t.Errorf("rejoined primary ran %d fresh measurements, want 0 (replicated cache)", n)
	}
}

// postTimed is postTune through a client that gives up after timeout; a
// transport error (the timeout among them) is returned, not fatal.
func postTimed(t *testing.T, url string, desc repro.NetworkDescription, timeout time.Duration) (repro.TuneResponse, int, error) {
	t.Helper()
	body, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	var tr repro.TuneResponse
	resp, err := (&http.Client{Timeout: timeout}).Post(url+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return tr, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&tr)
	}
	return tr, resp.StatusCode, err
}

// A hung owner — it accepts connections and answers nothing, /healthz
// included — is left on the failure detector's verdict: the non-owner's
// probe of the primary times out and marks it down, which aborts the
// forward in flight and fails it over to the secondary. Without that watch
// the request would hang until the client gave up.
func TestClusterHungOwnerFailsOverOnDetection(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	owners := h.ownersOf(desc)
	client := h.nonOwnerOf(owners)
	primary, secondary := owners[0], owners[1]

	h.hung[primary].Store(true)
	start := time.Now()
	resp, code, err := postTimed(t, h.addrs[client], desc, 15*time.Second)
	if err != nil {
		t.Fatalf("request through the non-owner: %v", err)
	}
	if code != http.StatusOK || resp.Tier == autotune.TierAnalytic.String() {
		t.Fatalf("status %d tier %q, want 200 from the secondary owner", code, resp.Tier)
	}
	t.Logf("answered in %v", time.Since(start).Round(time.Millisecond))
	if got := h.servers[client].count.failovers.Load(); got != 1 {
		t.Errorf("failovers %d, want 1", got)
	}
	if got := h.servers[secondary].count.forwardServed.Load(); got != 1 {
		t.Errorf("secondary served %d forwarded requests, want 1", got)
	}
}

// A client hanging up mid-forward is no evidence against the owner: no
// owner is marked down, nothing fails over, and no analytic answer is
// computed for a reader who has left.
func TestClusterClientGoneMidForwardKeepsOwnersUp(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, func(i int, cfg *Config) {
		cfg.Tune = tinyOpts(12, 3)
		cfg.Tune.MeasureLatency = 2 * time.Millisecond
	})
	resnet := repro.DescribeNetwork(testArch.Name, models.ResNet18().NetworkLayers())
	owners := h.ownersOf(resnet)
	client := h.nonOwnerOf(owners)

	if _, _, err := postTimed(t, h.addrs[client], resnet, 50*time.Millisecond); err == nil {
		t.Fatal("the sweep answered within 50ms: the client never hung up mid-forward")
	}
	waitUntil(t, "the non-owner's handler returned", func() bool { return h.inflight[client].Load() == 0 })
	srv := h.servers[client]
	for _, o := range owners {
		if !srv.cluster.membership.Up(h.addrs[o]) {
			t.Errorf("owner %s marked down by a client hang-up", h.addrs[o])
		}
	}
	if got := srv.count.localFallbacks.Load(); got != 0 {
		t.Errorf("local fallbacks %d, want 0", got)
	}
	if got := srv.count.failovers.Load(); got != 0 {
		t.Errorf("failovers %d, want 0", got)
	}
}

// With every owner of a key unreachable, the proxying replica answers from
// its local analytic tier — 200, tier "analytic" — never a 5xx; once an
// owner rejoins, the same request routes to it again and comes back
// measured.
func TestClusterAllOwnersDownFallsBackToAnalytic(t *testing.T) {
	h := newClusterHarness(t, 3, cluster.Config{Replicas: 2}, nil)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	owners := h.ownersOf(desc)
	client := h.nonOwnerOf(owners)
	h.kill(owners[0])
	h.kill(owners[1])

	resp, code := postTune(t, h.addrs[client], desc)
	if code != http.StatusOK {
		t.Fatalf("orphaned request: status %d, want 200 from the analytic floor", code)
	}
	if resp.Tier != autotune.TierAnalytic.String() {
		t.Fatalf("orphaned request tier %q, want analytic", resp.Tier)
	}
	if got := h.servers[client].count.localFallbacks.Load(); got != 1 {
		t.Errorf("local fallbacks %d, want 1", got)
	}
	mustContain(t, getMetrics(t, h.addrs[client]), "tuned_forward_local_fallback_total 1")

	// An owner rejoining restores measured routing for the same request.
	h.restart(owners[0])
	waitUntil(t, "client sees the rejoined owner", func() bool {
		return h.servers[client].cluster.membership.Up(h.addrs[owners[0]])
	})
	resp, code = postTune(t, h.addrs[client], desc)
	if code != http.StatusOK || resp.Tier == autotune.TierAnalytic.String() {
		t.Fatalf("post-rejoin request: status %d tier %q, want 200 measured", code, resp.Tier)
	}
}

// Hinted handoff survives a crash of the replica holding it: the aux
// snapshot persists the queue alongside the cache state, a fresh boot
// restores it, and the drain still happens when the down peer finally
// rejoins.
func TestClusterHandoffPersistsAcrossRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	h := newClusterHarness(t, 2, cluster.Config{Replicas: 2},
		func(i int, cfg *Config) {
			if i == 0 {
				cfg.StatePath = state
			}
		})
	desc := repro.DescribeNetwork(testArch.Name, netA())

	// With 2 peers at RF 2 every key is owned by both: kill B, serve on A,
	// and the replication to B must park as handoff.
	h.kill(1)
	if _, code := postTune(t, h.addrs[0], desc); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	waitUntil(t, "handoff parked for the dead peer", func() bool {
		return len(h.servers[0].cluster.handoff.Snapshot()[h.addrs[1]]) > 0
	})

	// Crash-restart A; the handoff file must bring the backlog back.
	h.kill(0)
	if _, err := os.Stat(state + ".handoff"); err != nil {
		t.Fatalf("handoff snapshot not written: %v", err)
	}
	h.restart(0)
	if len(h.servers[0].cluster.handoff.Snapshot()[h.addrs[1]]) == 0 {
		t.Fatal("restored replica lost its handoff backlog")
	}

	// B rejoins: the restored backlog drains and B serves the request from
	// the replayed entries with zero fresh measurements.
	waitUntil(t, "restored replica sees the peer down", func() bool {
		return !h.servers[0].cluster.membership.Up(h.addrs[1])
	})
	h.restart(1)
	waitUntil(t, "restored handoff drained", func() bool {
		return len(h.servers[0].cluster.handoff.Snapshot()[h.addrs[1]]) == 0 &&
			h.servers[1].count.mergedEntries.Load() > 0
	})
	resp, code := postTune(t, h.addrs[1], desc)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, v := range resp.Verdicts {
		if !v.Shared {
			t.Errorf("layer %s not served from replayed handoff", v.Layer)
		}
	}
	if n := h.servers[1].Measurements(); n != 0 {
		t.Errorf("rejoined peer measured %d times despite handoff replay", n)
	}
}

// The background refinement backlog survives a restart: jobs enqueued for
// analytically-answered requests are persisted in the timed snapshot and
// re-enqueued on boot, so the measured upgrade still happens even if the
// daemon restarts in between.
func TestServerRefineQueuePersistsAcrossRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	desc := repro.DescribeNetwork(testArch.Name, netA())
	desc.Options = &repro.RequestOptions{Budget: 8, Seed: 9}

	// First life: a dead measurement backend (100% injected failure) with a
	// breaker that stays open — every answer is analytic and its refinement
	// job can only wait.
	srv1, err := New(Config{
		Tune: tinyOpts(8, 9), Winograd: true, StatePath: state,
		Chaos: chaos.Config{Seed: 1, FailRate: 1},
		Breaker: autotune.BreakerConfig{
			Threshold: 0.5, Window: 8, MinSamples: 4, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHarnessServer(t, srv1)
	resp, code := postTune(t, ts, desc)
	if code != http.StatusOK || resp.Tier != autotune.TierAnalytic.String() {
		t.Fatalf("dead backend: status %d tier %q, want 200 analytic", code, resp.Tier)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state + ".refine"); err != nil {
		t.Fatalf("refine snapshot not written: %v", err)
	}

	// Second life: healthy backend. The restored backlog must measure the
	// network without any client asking again.
	srv2, ts2 := newTestServer(t, Config{
		Tune: tinyOpts(8, 9), Winograd: true, StatePath: state, AnalyticOverflow: true,
	})
	waitUntil(t, "restored refinement job measured", func() bool {
		return srv2.count.refineDone.Load() > 0
	})
	resp, code = postTune(t, ts2.URL, desc)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, v := range resp.Verdicts {
		if v.Tier != autotune.TierRefined.String() {
			t.Errorf("layer %s tier %q, want refined (restored queue measured it)", v.Layer, v.Tier)
		}
	}
}

// newHarnessServer serves one prebuilt Server over a real listener and
// returns its base URL (teardown via t.Cleanup; Close is the caller's).
func newHarnessServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return fmt.Sprintf("http://%s", ln.Addr())
}
