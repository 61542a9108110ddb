package tuned

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/cluster"
)

// This file wires the cluster peer layer (internal/cluster) into the
// daemon. With -peers configured, N replicas form one logically-shared
// tuning service: every replica computes the same consistent-hash ownership
// for every request key, a replica that does not own a key proxies the
// request to the primary owner (failing over to the secondary when the
// primary errors or is detected down), and an owner replicates the cache
// entries a request produced to the key's other owners — queueing them as
// hinted handoff while a peer is down and replaying on rejoin. The
// degradation ladder from the standalone daemon gets one more rung at the
// bottom: a request whose owners are all unreachable is answered from the
// local analytic tier (200, tier "analytic"), never with a 5xx.

const (
	// maxReplicateBody bounds POST /v1/cluster/replicate bodies. Replication
	// envelopes carry engine state (measurement rows), so they run far larger
	// than client requests.
	maxReplicateBody = 16 << 20
	// pushTimeout bounds one replication push or handoff-drain round trip.
	pushTimeout = 10 * time.Second
	// handoffMax bounds the hinted-handoff queue per down peer, in entries.
	handoffMax = 4096
)

// clusterState is the per-server cluster runtime.
type clusterState struct {
	cfg        cluster.Config
	ring       *cluster.Ring
	membership *cluster.Membership
	handoff    *cluster.Handoff
	client     *cluster.Client

	pushWG sync.WaitGroup // in-flight async replication pushes
}

// initCluster builds the cluster runtime and registers its peer endpoints;
// no-op when the daemon is standalone.
func (s *Server) initCluster() {
	if !s.cfg.Cluster.Enabled() {
		return
	}
	ccfg := s.cfg.Cluster.Normalized()
	c := &clusterState{
		cfg:     ccfg,
		ring:    cluster.NewRing(ccfg.Peers),
		handoff: cluster.NewHandoff(handoffMax),
		client:  cluster.NewClient(cluster.ClientConfig{}),
	}
	c.membership = cluster.NewMembership(ccfg, c.client.Probe, func(addr string) {
		go s.drainHandoff(addr)
	})
	s.cluster = c
	s.mux.HandleFunc("POST /v1/cluster/tune", s.handleClusterTune)
	s.mux.HandleFunc("POST /v1/cluster/replicate", s.handleClusterReplicate)
}

// owners splits a request key's owner set into whether this replica is in
// it and the other owners, in ring (primary-first) order.
func (c *clusterState) owners(key string) (self bool, others []string) {
	for _, o := range c.ring.Owners(key, c.cfg.Replicas) {
		if o == c.cfg.Self {
			self = true
		} else {
			others = append(others, o)
		}
	}
	return self, others
}

// routeTune is the routing seam handleTune runs after parsing and before
// serving: it reports true when it wrote the response (the request was
// proxied to an owner, or answered from the local fallback tier because no
// owner was reachable) and false when this replica owns the key and should
// serve it locally.
func (s *Server) routeTune(w http.ResponseWriter, r *http.Request, req *request) bool {
	c := s.cluster
	self, owners := c.owners(req.Key())
	if self {
		return false // we own the key: serve locally
	}
	ladder := slices.DeleteFunc(owners, func(o string) bool { return !c.membership.Up(o) })
	envelope, err := json.Marshal(repro.ForwardedTuneRequest{Origin: c.cfg.Self, Attempt: 1, Network: req.desc})
	if err == nil && len(ladder) > 0 && s.forward(r.Context(), w, envelope, ladder) {
		s.count.forwarded.Add(1)
		return true
	}
	if r.Context().Err() != nil {
		return true // the client hung up: nobody reads an answer, no owner failed
	}
	// Every owner is down or failed mid-request: the bottom of the
	// degradation ladder is the local analytic tier, never a 5xx. The
	// refinement enqueue inside gives this replica a measured answer to
	// serve (and replicate) if the partition outlives the client's retry.
	s.count.localFallbacks.Add(1)
	s.serveAnalytic(w, req)
	return true
}

// forward proxies one request along the owner ladder, one owner at a time,
// moving on only on evidence: a transport error (which marks the owner
// down), a 5xx, or the failure detector marking the owner down mid-call —
// how a hung owner is left. The client's own hang-up is no evidence. The
// first non-5xx response is relayed verbatim. Reports false when every
// rung failed or the client is gone.
func (s *Server) forward(ctx context.Context, w http.ResponseWriter, envelope []byte, ladder []string) bool {
	c := s.cluster
	for i, addr := range ladder {
		if i > 0 {
			s.count.failovers.Add(1)
		}
		status, body, err := c.forwardTo(ctx, addr, envelope)
		if ctx.Err() != nil {
			return false
		}
		if err != nil {
			c.membership.MarkDown(addr)
		}
		if err != nil || status >= 500 {
			continue
		}
		// Any non-5xx answer — success or the owner's own verdict on a bad
		// request — is the response.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(body)
		return true
	}
	return false
}

// forwardTo is one forward to addr, cancelled the moment the failure
// detector marks addr down.
func (c *clusterState) forwardTo(ctx context.Context, addr string, envelope []byte) (int, []byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	down := c.membership.Down(addr)
	go func() {
		select {
		case <-down:
			cancel()
		case <-ctx.Done():
		}
	}()
	return c.client.Forward(ctx, addr, envelope)
}

// handleClusterTune is POST /v1/cluster/tune: a peer-forwarded client
// request. The receiver always serves locally — it never re-forwards, which
// is what makes routing loop-free — so a forwarded request behaves exactly
// like a client request that happened to hit its owner. For the same reason
// an envelope the hit lane answered before is replayed (replay.go) with no
// routing question to ask: serveTune is the only path it could take.
func (s *Server) handleClusterTune(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxRequestBody)
	if !ok {
		return
	}
	if out := s.replay(&s.forwardReplies, body); out != nil {
		s.count.forwardServed.Add(1)
		writeBody(w, http.StatusOK, out)
		return
	}
	req := s.parseRequest(w, body, func(body []byte) (repro.NetworkDescription, error) {
		fr, err := repro.ParseForwardedTuneRequest(body)
		return fr.Network, err
	})
	if req == nil {
		return
	}
	req.body, req.replies = body, &s.forwardReplies
	s.count.forwardServed.Add(1)
	s.serveTune(w, req)
}

// handleClusterReplicate is POST /v1/cluster/replicate: a peer pushing the
// cache entries a request it owned produced (or a rejoin replay of hinted
// handoff). The body is the same versioned, checksummed envelope the state
// file uses; validation is all-or-nothing, exactly like loading a file.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxReplicateBody)
	if !ok {
		return
	}
	entries, err := autotune.DecodeEntries(body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.cache.PutEntries(entries); err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.count.mergedEntries.Add(int64(len(entries)))
	writeJSON(w, http.StatusOK, map[string]int{"merged": len(entries)})
}

// replicateRequest ships the cache entries a request's sweep produced to the
// key's other owners, off the client response path: gathering the entries
// copies slice headers, while encoding the envelope (engine state makes it
// hundreds of KB) and pushing it happen on goroutines Close waits for. Only
// a serve that ran a sweep calls it — a request answered from the cache
// alone wrote nothing to ship. A push failing (after the client's own
// retries) marks the peer down and parks the entries as hinted handoff for
// the rejoin replay. No-op when standalone.
func (s *Server) replicateRequest(req *request) {
	c := s.cluster
	if c == nil {
		return
	}
	selfOwns, targets := c.owners(req.Key())
	if !selfOwns || len(targets) == 0 {
		// A non-owner served this (local fallback during a partition): the
		// owners will produce their own entries when they next see the key.
		return
	}
	entries := req.Entries(s)
	if len(entries) == 0 {
		return
	}
	// Handoff parks the entries themselves, no envelope needed.
	up := targets[:0]
	for _, peer := range targets {
		if c.membership.Up(peer) {
			up = append(up, peer)
		} else {
			c.handoff.Queue(peer, entries)
		}
	}
	if len(up) == 0 {
		return
	}
	c.pushWG.Add(1)
	go func() {
		defer c.pushWG.Done()
		envelope, err := autotune.EncodeEntries(entries)
		if err != nil {
			return
		}
		for _, peer := range up {
			c.pushWG.Add(1)
			go func() {
				defer c.pushWG.Done()
				ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
				defer cancel()
				if err := c.client.Push(ctx, peer, envelope); err != nil {
					s.count.pushFailures.Add(1)
					c.membership.MarkDown(peer)
					c.handoff.Queue(peer, entries)
					return
				}
				s.count.pushedEntries.Add(int64(len(entries)))
			}()
		}
	}()
}

// drainHandoff replays a rejoined peer's parked entries, batch by batch,
// until its queue is empty. A failing replay parks the batch again through
// Queue — an entry queued meanwhile stays where it supersedes the batch's —
// and re-marks the peer down; the next rejoin resumes the drain.
func (s *Server) drainHandoff(addr string) {
	c := s.cluster
	for {
		entries := c.handoff.Take(addr)
		if len(entries) == 0 {
			return
		}
		envelope, err := autotune.EncodeEntries(entries)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		err = c.client.Push(ctx, addr, envelope)
		cancel()
		if err != nil {
			c.handoff.Queue(addr, entries)
			c.membership.MarkDown(addr)
			return
		}
		c.handoff.MarkReplayed(len(entries))
		s.count.pushedEntries.Add(int64(len(entries)))
	}
}

// ClusterHealth is the cluster block of /healthz: this replica's identity,
// the replication factor, the peer table the failure detector maintains,
// and the hinted-handoff backlog.
type ClusterHealth struct {
	Self              string               `json:"self"`
	ReplicationFactor int                  `json:"replication_factor"`
	Peers             []cluster.PeerHealth `json:"peers"`
	HandoffDepth      int                  `json:"handoff_depth"`
}

// clusterHealth returns the /healthz cluster block, nil when standalone.
func (s *Server) clusterHealth() *ClusterHealth {
	c := s.cluster
	if c == nil {
		return nil
	}
	return &ClusterHealth{
		Self:              c.cfg.Self,
		ReplicationFactor: c.cfg.Replicas,
		Peers:             c.membership.Snapshot(),
		HandoffDepth:      c.handoff.DepthAll(),
	}
}

// clusterMetrics appends the peer/forward/handoff series to /metrics.
func (s *Server) clusterMetrics(m *metricsWriter, rows []counterRow) {
	c := s.cluster
	if c == nil {
		return
	}
	m.family("tuned_peer_up", "gauge", "Peer reachability per the failure detector (1 up, 0 down).")
	for _, p := range c.membership.Snapshot() {
		m.sample("tuned_peer_up", `peer="`+p.Addr+`"`, boolGauge(p.Up))
	}
	m.counters(rows)
	queued, replayed, dropped := c.handoff.Stats()
	m.gauge("tuned_handoff_depth", "Cache entries parked for unreachable peers.", float64(c.handoff.DepthAll()))
	m.counter("tuned_handoff_queued_total", "Cache entries ever parked as hinted handoff.", queued)
	m.counter("tuned_handoff_replayed_total", "Hinted-handoff entries replayed to rejoined peers.", replayed)
	m.counter("tuned_handoff_dropped_total", "Hinted-handoff entries dropped (bound or validation).", dropped)
}
