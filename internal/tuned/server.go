package tuned

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/shapes"
)

// Config configures a Server. The zero value is served with defaults:
// fresh cache, engine default options, warm-starting on, a 20ms admission
// window, no admission cap, no persistence.
type Config struct {
	// Cache is the verdict store and dedup point; nil makes a fresh one.
	// Install an autotune.EvictionPolicy on it (or via cmd/tuned's flags)
	// for the bounded long-running regime: the server evicts at the end of
	// every sweep round and refinement sweep (autotune.Cache.Evict).
	Cache *autotune.Cache
	// Tune holds the per-layer engine defaults; requests may override
	// Budget and Seed within the wire limits. A zero value uses
	// autotune.DefaultOptions.
	Tune autotune.Options
	// LayerWorkers is how many deduplicated searches of one batch tune
	// concurrently (default GOMAXPROCS, see autotune.NetworkOptions).
	LayerWorkers int
	// Winograd is the default for also tuning the fused Winograd dataflow
	// where it applies (requests may override).
	Winograd bool
	// Kinds is the default extra candidate-kind set of the per-layer kernel
	// choice (requests may override via options.kinds); Direct is always
	// tuned.
	Kinds []autotune.Kind
	// Warm enables cross-request warm-starting: every search starts from
	// the cache's verdicts of its kind (autotune.NetworkOptions.Warm).
	Warm bool
	// Resume re-enters cached searches whose persisted state is shorter
	// than the requested budget instead of returning them as-is.
	Resume bool
	// BatchWindow is the admission window behind a running batch: a request
	// that finds a batch in flight opens or joins the next one, which runs
	// once the window has elapsed, so everything arriving within it merges.
	// A request that finds no batch in flight runs at once. 0 means one
	// batch per request.
	BatchWindow time.Duration
	// MaxInflight caps the summed worst-case fresh-measurement budget of
	// admitted requests; beyond it, requests get 429 + Retry-After
	// (0 = unlimited).
	MaxInflight int64
	// StatePath, when set, is the cache state file: loaded on New — with
	// crash salvage: a file torn by a mid-write kill yields its intact
	// entries and is set aside as .corrupt — and flushed by Close and the
	// snapshot timer. The flush is atomic (temp + fsync + rename), so no
	// crash window loses the previous complete snapshot.
	StatePath string
	// SnapshotInterval, when > 0 together with StatePath, flushes the cache
	// state in the background every interval, so a crash loses at most one
	// interval of verdicts instead of everything since boot.
	SnapshotInterval time.Duration
	// RequestTimeout, when > 0, bounds each tuning batch's engine time.
	// Searches still running at the deadline stop after their current
	// measurement and the response carries best-so-far verdicts marked
	// "partial": true; the truncated engine state is persisted at the
	// measurements it took, so re-POSTing the identical request continues
	// the search. It needs Resume, and New refuses it without: the re-POST
	// would be a cache hit that serves the cut-short verdict as final.
	RequestTimeout time.Duration
	// Chaos, when enabled, wraps every search's measurer in the seeded
	// fault injector — the harness behind the chaos e2e suite and CI job.
	// Production deployments leave it zero.
	Chaos chaos.Config
	// AnalyticOverflow degrades overload instead of shedding it: a request
	// beyond the admission budget is answered immediately from the
	// measurement-free analytic tier (200 with tier "analytic") instead of
	// 429, and enqueued on the background refinement queue, which measures
	// it once budget frees up and upgrades the cache in place.
	AnalyticOverflow bool
	// Breaker, when its Threshold is > 0, arms the measurement circuit
	// breaker around every search's measurer: past the windowed
	// failure-rate threshold the server answers from the analytic tier
	// only, until half-open probe measurements restore service.
	Breaker autotune.BreakerConfig
	// RefineWorkers is how many background workers drain the refinement
	// queue (default 1; the queue exists whenever AnalyticOverflow or the
	// breaker is configured).
	RefineWorkers int
	// Cluster, when its peer list is non-empty, joins this daemon to a
	// replicated shard cluster (see internal/cluster and cluster.go): a
	// consistent-hash ring routes each request key to its owning replicas,
	// non-owners proxy with owner failover, owners replicate verdicts, and
	// writes for down peers park as hinted handoff. Zero value = standalone.
	Cluster cluster.Config
}

// Server is the tuning service: an http.Handler plus the shared tuning
// state behind it.
type Server struct {
	cfg   Config
	cache *autotune.Cache
	batch *batcher
	adm   *admission
	mux   *http.ServeMux
	start time.Time
	// measuring maps the Key of each request past the breaker check to a
	// channel closed when it leaves serveTune; identical requests wait on it.
	measuring sync.Map

	closed atomic.Bool
	// count is the counter registry (metrics.go): every monotonic count
	// /healthz and /metrics report comes out of this one value.
	count counters

	salvaged     bool         // boot recovered state from a damaged file
	lastSnapshot atomic.Int64 // unix nanos of the last successful flush (0 = never)
	lastFlushErr atomic.Value // string: the last flush failure, "" once a flush succeeds

	injector *chaos.Injector // nil unless Config.Chaos is enabled

	// Graceful degradation (degrade.go): the breaker guarding the
	// measurement seam, the per-arch analytic tier, the background
	// refinement queue.
	breaker  *autotune.Breaker // nil unless Config.Breaker is armed
	degraded bool              // any degradation trigger configured

	anMu       sync.Mutex
	analytic   map[string]*autotune.AnalyticDSE // per arch name
	calibrated map[string]calibration           // per arch name, the last fit

	refineCh    chan *request       // nil unless a refinement trigger is configured
	refineMu    sync.Mutex          // guards the two maps below
	refineQueue map[string]*request // by Key: queued or mid-refinement, and what .refine persists
	refinedKeys map[string]bool     // cache keys a refinement has measured (refinedKey)
	refineEpoch atomic.Uint64       // moves after every write to refinedKeys

	// replies and forwardReplies are the hit lane's recorded answers to
	// client and to peer-forwarded requests (replay.go).
	replies, forwardReplies replies

	// cluster is the replicated-shard runtime (cluster.go); nil standalone.
	cluster *clusterState

	// stop ends the background goroutines — the snapshot timer and the
	// refinement workers — and bg waits them out.
	stop     chan struct{}
	bg       sync.WaitGroup
	stopOnce sync.Once
}

// New builds a Server, loading persisted cache state from cfg.StatePath if
// the file exists. It fails on a configuration that cannot work (a
// RequestTimeout without Resume) or a state file it cannot read.
func New(cfg Config) (*Server, error) {
	if cfg.RequestTimeout > 0 && !cfg.Resume {
		return nil, errors.New("tuned: -request-timeout needs -resume (Config.RequestTimeout needs Config.Resume): a re-POST must continue a cut-short search, not serve it as final")
	}
	if cfg.Cache == nil {
		cfg.Cache = autotune.NewCache()
	}
	if cfg.Tune.Budget == 0 {
		def := autotune.DefaultOptions()
		def.MeasureLatency = cfg.Tune.MeasureLatency
		def.Workers = cfg.Tune.Workers
		def.Retry = cfg.Tune.Retry
		cfg.Tune = def
	}
	cfg.Kinds = canonicalKinds(slices.Clone(cfg.Kinds))
	s := &Server{cfg: cfg, cache: cfg.Cache, adm: &admission{max: cfg.MaxInflight}, start: time.Now(),
		stop: make(chan struct{})}
	// Every fresh measurement of every request funnels through this sink;
	// it is the denominator of the dedup story (/healthz reports it, the
	// e2e suite pins it). Retries and quarantines feed the same registry so
	// an orchestrator sees a flaky measurement backend.
	prev := cfg.Tune.OnEvent
	sink := [...]*atomic.Int64{autotune.EventMeasure: &s.count.measurements,
		autotune.EventRetry: &s.count.retries, autotune.EventQuarantine: &s.count.quarantined}
	s.cfg.Tune.OnEvent = func(e autotune.Event) {
		sink[e].Add(1)
		if prev != nil {
			prev(e)
		}
	}
	if cfg.Chaos.Enabled() {
		s.injector = chaos.New(cfg.Chaos)
	}
	if cfg.Breaker.Enabled() {
		bcfg := cfg.Breaker
		prevTrans := bcfg.OnTransition
		bcfg.OnTransition = func(from, to autotune.BreakerState) {
			s.count.breaker[to].Add(1)
			if prevTrans != nil {
				prevTrans(from, to)
			}
		}
		s.breaker = autotune.NewBreaker(bcfg)
	}
	s.degraded = cfg.AnalyticOverflow || s.breaker != nil || cfg.RequestTimeout > 0
	s.analytic = make(map[string]*autotune.AnalyticDSE)
	s.calibrated = make(map[string]calibration)
	s.refinedKeys = make(map[string]bool)
	if cfg.AnalyticOverflow || s.breaker != nil {
		s.refineCh = make(chan *request, refineQueueCap)
		s.refineQueue = make(map[string]*request)
		for range max(cfg.RefineWorkers, 1) {
			s.bg.Add(1)
			go s.refineLoop()
		}
	}
	s.batch = newBatcher(cfg.BatchWindow, s.runBatch)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.initCluster()
	if cfg.StatePath != "" {
		var err error
		if _, s.salvaged, err = s.cache.RecoverFile(cfg.StatePath); err != nil {
			return nil, fmt.Errorf("tuned: state %s: %w", cfg.StatePath, err)
		}
		// The auxiliary snapshots ride alongside the cache state file:
		// parked handoff survives a crash, and the refinement backlog is
		// replayed so analytically-answered clients still get their measured
		// upgrade after a restart.
		s.restoreAux()
		if cfg.SnapshotInterval > 0 {
			s.bg.Add(1)
			go s.snapshotLoop()
		}
	}
	if s.cluster != nil {
		// The probe loops start only now: boot-time state restore must be
		// in place before the first rejoin can fire a handoff drain.
		s.cluster.membership.Start()
	}
	return s, nil
}

// ServeHTTP makes the server mountable directly into httptest and
// http.Server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the snapshot timer and flushes the cache state (verdicts
// plus engine state, format v2) to StatePath, so the next boot resumes
// where this process stopped. It is the graceful-shutdown half of the
// persistence seam; call it after the HTTP server has drained.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.stopOnce.Do(func() {
		// Stop the snapshot timer and the refinement workers (a job
		// mid-measure finishes, a job mid-wait abandons) before the final
		// flush so its snapshot includes their last completed work.
		close(s.stop)
		s.bg.Wait()
		if s.cluster != nil {
			// Stop probing and wait out in-flight replication pushes before
			// the final flush, so entries that fail their push are parked as
			// handoff in time to be persisted.
			s.cluster.membership.Stop()
			s.cluster.pushWG.Wait()
		}
	})
	if s.cfg.StatePath == "" {
		return nil
	}
	return s.flushState()
}

// flushState writes one atomic snapshot — the cache plus the auxiliary
// handoff and refinement-backlog files — and records its outcome for
// /healthz.
func (s *Server) flushState() error {
	err := s.cache.SaveFile(s.cfg.StatePath)
	if err == nil {
		err = s.flushAux()
	}
	if err != nil {
		s.lastFlushErr.Store(err.Error())
		return err
	}
	s.lastFlushErr.Store("")
	s.lastSnapshot.Store(time.Now().UnixNano())
	return nil
}

// snapshotLoop is the timed background persistence: one atomic flush per
// SnapshotInterval, so a crash loses at most one interval of verdicts. A
// failing flush is recorded (and surfaced on /healthz) but does not stop
// the loop — disk pressure may clear.
func (s *Server) snapshotLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.flushState()
		case <-s.stop:
			return
		}
	}
}

// Measurements reports the fresh measurements performed since boot.
func (s *Server) Measurements() int64 { return s.count.measurements.Load() }

// runBatch tunes one admission round: per mergeable group, one TuneNetwork
// call over the concatenated layers. Groups run concurrently — they share
// nothing but the (concurrency-safe) cache. With RequestTimeout set, each
// group's engine time is deadline-bounded from the moment its batch runs;
// the deadline is per group, not per request, because a group's searches
// are shared across every client merged into it. The round is one cache
// operation: it ends at Cache.Evict, never between its groups.
func (s *Server) runBatch(jobs []*tuneJob) {
	s.count.batches.Add(1)
	var wg sync.WaitGroup
	for _, g := range groupJobs(jobs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if s.cfg.RequestTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
				defer cancel()
			}
			runGroup(ctx, s.cache, g, g[0].req.NetworkOptions(s))
		}()
	}
	wg.Wait()
	s.cache.Evict()
}

// wrapMeasurer is the NetworkOptions.WrapMeasurer hook, composing the two
// seams on the measurement path: the chaos injector (innermost, emulating
// the fallible backend) and the circuit breaker (outermost, watching the
// failure rate the engine actually sees). nil when neither is configured.
func (s *Server) wrapMeasurer() func(autotune.Kind, shapes.ConvShape, autotune.Measurer) autotune.FallibleMeasurer {
	if s.injector == nil && s.breaker == nil {
		return nil
	}
	return func(kind autotune.Kind, shape shapes.ConvShape, m autotune.Measurer) autotune.FallibleMeasurer {
		fm := autotune.LiftMeasurer(m)
		if s.injector != nil {
			fm = s.injector.Wrap(chaos.SearchSalt(kind, shape), m)
		}
		return s.breaker.Wrap(fm)
	}
}

// writeJSON writes v as a JSON response body with the given status and
// returns the bytes written. A value JSON cannot encode (a NaN) leaves the
// body empty, as the streaming encoder before it did.
func writeJSON(w http.ResponseWriter, status int, v any) []byte {
	out, err := json.Marshal(v)
	if err == nil {
		out = append(out, '\n')
	}
	writeBody(w, status, out)
	return out
}

// writeBody writes an encoded JSON response body with the given status.
func writeBody(w http.ResponseWriter, status int, out []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}

// errJSON writes a JSON error body with the given status.
func errJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds POST bodies; a maximal description (512 layers)
// is well under 1 MiB.
const maxRequestBody = 1 << 20

// readBody is the front of every POST endpoint: refuse while shutting down,
// then read the body up to limit. It reports false after writing the error
// response.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if s.closed.Load() {
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		errJSON(w, status, "read body: %v", err)
		return nil, false
	}
	return body, true
}

// parseRequest is the shared front half of the two tune endpoints after
// readBody: decode and validate the body with the endpoint's wire parser,
// resolve it into the request value. It reports nil after writing the error
// response.
func (s *Server) parseRequest(w http.ResponseWriter, body []byte, parse func([]byte) (repro.NetworkDescription, error)) *request {
	desc, err := parse(body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	req, err := s.resolve(desc)
	if err != nil {
		errJSON(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return req
}

// handleTune is POST /v1/tune: answer a body the hit lane answered before
// from its recorded reply, or decode and validate the network description,
// route it to its owning replica when clustered, and serve it there
// (serveTune).
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxRequestBody)
	if !ok {
		return
	}
	// The lookup may come before routing: only serveTune records, and only
	// for a body this replica served itself, so it owns the body's key. Ring
	// ownership (clusterState.owners) is a function of the key and the fixed
	// peer list alone — not of which peers are up — so routing would serve
	// that body locally again.
	if out := s.replay(&s.replies, body); out != nil {
		writeBody(w, http.StatusOK, out)
		return
	}
	req := s.parseRequest(w, body, repro.ParseNetworkDescription)
	if req == nil {
		return
	}
	req.body, req.replies = body, &s.replies
	if s.cluster == nil || !s.routeTune(w, r, req) {
		s.serveTune(w, req)
	}
}

// serveTune answers one request from this replica, in this order: the cache
// probe, the breaker check, the wait for an identical request already
// measuring, the admission gate, the batched sweep. It is the
// local half of the routing seam — both client requests this replica owns
// and requests peers forward land here.
func (s *Server) serveTune(w http.ResponseWriter, req *request) {
	// A request the cache fully answers is served inline. It measures
	// nothing, so there is nothing to admit, nothing a batch could share with
	// it (it dedups against no search, and warm seeds rank the cache's
	// verdicts, not it), nothing an open breaker protects it from, and
	// — having written no entry — nothing to replicate. The answer is
	// recorded for replay (replay.go) with the verdicts it was read from.
	epoch := s.refineEpoch.Load()
	verdicts, probe, ok := autotune.CachedNetwork(req.arch, req.layers, s.cache, req.sweepOptions(s))
	if ok {
		s.count.requests.Add(1)
		s.markTiers(req.arch.Name, verdicts)
		s.record(req, epoch, &reply{}, probe, verdicts, s.respond(w, req, verdicts))
		return
	}

	// Degradation trigger: a tripped breaker means a measured search could
	// only burn its budget on fast-fails, so answer instantly from the
	// analytic tier and let the refinement queue (and the next half-open
	// probes) bring measured service back. The answer is recorded for replay
	// with the probe that missed and the calibration it was priced at.
	if s.breaker.State() == autotune.BreakerOpen {
		if verdicts, out, cal := s.serveAnalytic(w, req); out != nil {
			s.record(req, epoch, &reply{refine: req, cal: cal}, probe, verdicts, out)
		}
		return
	}

	// A request identical to one already measuring waits for it, then starts
	// over: the cache answers it whole, or, if the first was shed or failed,
	// it goes on in its place. On an idle server the first runs alone, so the
	// batcher cannot merge the two, and a sweep beside the first would
	// warm-start from whatever the first had cached so far.
	mine := make(chan struct{})
	if first, busy := s.measuring.LoadOrStore(req.Key(), mine); busy {
		<-first.(chan struct{})
		s.serveTune(w, req)
		return
	}
	defer func() {
		s.measuring.Delete(req.Key()) // before the close, so a woken twin cannot find it
		close(mine)
	}()

	cost := req.Cost(s)
	if !s.adm.acquire(cost) {
		if s.cfg.AnalyticOverflow {
			// Degradation trigger: overload. Instead of shedding with 429,
			// the overflow gets the instant analytic answer now and a
			// background refinement slot once budget frees up.
			s.serveAnalytic(w, req)
			return
		}
		s.count.rejected.Add(1)
		// A shed client should back off for as long as the in-flight budget
		// takes to measure — the budget times the emulated per-measurement
		// round-trip — floored at one second.
		wait := time.Duration(s.adm.load()) * s.cfg.Tune.MeasureLatency
		w.Header().Set("Retry-After", fmt.Sprintf("%d", max(int64(wait/time.Second), 1)))
		errJSON(w, http.StatusTooManyRequests,
			"measurement budget exhausted (%d in flight, limit %d); retry later",
			s.adm.load(), s.cfg.MaxInflight)
		return
	}
	defer s.adm.release(cost)
	s.count.requests.Add(1)

	job := &tuneJob{req: req, done: make(chan struct{})}
	s.batch.submit(job)
	<-job.done
	if job.err != nil {
		errJSON(w, http.StatusInternalServerError, "%v", job.err)
		return
	}
	s.markTiers(req.arch.Name, job.verdicts)
	s.replicateRequest(req)
	s.respond(w, req, job.verdicts)
}

// respond writes a request's verdicts as the 200 response — the one tail of
// the measured and the analytic path, and so where every verdict's
// provenance is booked in the registry's tier × kind grid. A response whose
// every layer is analytic (served from the analytic tier outright, or every
// search fell back to it because the breaker tripped mid-run or the backend
// died) is a complete estimate: flagged as such, and queued for background
// refinement. It returns the bytes written.
func (s *Server) respond(w http.ResponseWriter, req *request, verdicts []autotune.LayerVerdict) []byte {
	resp := repro.TuneResponse{Arch: req.arch.Name,
		Verdicts:       repro.DescribeVerdicts(verdicts),
		NetworkSeconds: autotune.NetworkSeconds(verdicts)}
	allAnalytic := true
	for _, v := range verdicts {
		s.count.verdicts[v.Tier][v.Kind].Add(1)
		if v.Partial {
			resp.Partial = true
		}
		if v.Tier != autotune.TierAnalytic {
			allAnalytic = false
		}
	}
	if allAnalytic {
		resp.Tier = autotune.TierAnalytic.String()
		s.enqueueRefine(req)
	}
	if resp.Partial {
		s.count.partials.Add(1)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// Health is the /healthz body: liveness plus the cache and admission
// counters that make the dedup/eviction story observable, and the
// fault-tolerance report — snapshot age, last flush error, retry and
// quarantine counters — that lets an orchestrator alert on a daemon that
// is up but no longer persisting, or up but fighting a flaky measurement
// backend.
type Health struct {
	OK             bool                `json:"ok"`
	UptimeSeconds  float64             `json:"uptime_seconds"`
	Cache          autotune.CacheStats `json:"cache"`
	InflightBudget int64               `json:"inflight_budget"`
	Measurements   int64               `json:"measurements"`
	Requests       int64               `json:"requests"`
	Rejected       int64               `json:"rejected"`
	Batches        int64               `json:"batches"`
	// SnapshotAgeSeconds is the age of the last successful state flush;
	// -1 when none has happened yet (or persistence is off). With timed
	// snapshots on, an age far past -snapshot-interval means flushes fail.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// LastFlushError is the most recent state-flush failure, cleared by
	// the next successful flush.
	LastFlushError string `json:"last_flush_error,omitempty"`
	// Retries / Quarantined count transient measurement failures absorbed
	// by the engine's retry pipeline (nonzero only with a fallible backend
	// or fault injection).
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
	// PartialResponses counts requests answered best-so-far because they
	// hit -request-timeout.
	PartialResponses int64 `json:"partial_responses"`
	// StateSalvaged is true when boot found a damaged state file and
	// recovered what it could (the remainder is in StatePath+".corrupt").
	StateSalvaged bool `json:"state_salvaged,omitempty"`
	// Breaker is the measurement circuit breaker's state — "closed",
	// "open" (analytic-only service), or "half-open" (probing) — omitted
	// when no breaker is configured.
	Breaker string `json:"breaker,omitempty"`
	// AnalyticVerdicts / RefinedVerdicts count verdicts served from the
	// analytic tier and measured upgrades of previously analytic answers;
	// MeasuredVerdicts is the ordinary-tier count for comparison. All three
	// are omitted until degradation machinery is configured.
	AnalyticVerdicts int64 `json:"analytic_verdicts,omitempty"`
	RefinedVerdicts  int64 `json:"refined_verdicts,omitempty"`
	// RefineQueueDepth / RefinedNetworks expose the background refinement
	// queue: jobs waiting, and analytically-answered networks measured so
	// far.
	RefineQueueDepth int   `json:"refine_queue_depth,omitempty"`
	RefinedNetworks  int64 `json:"refined_networks,omitempty"`
	// Cluster is the replicated-shard block — this replica's identity, the
	// peer table with reachability, the hinted-handoff backlog — omitted
	// when the daemon runs standalone.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// snapshotAge is the age in seconds of the last successful state flush, -1
// when none has happened yet.
func (s *Server) snapshotAge() float64 {
	ns := s.lastSnapshot.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	flushErr, _ := s.lastFlushErr.Load().(string)
	c := &s.count
	h := Health{
		OK:                 !s.closed.Load(),
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Cache:              s.cache.Stats(),
		InflightBudget:     s.adm.load(),
		Measurements:       c.measurements.Load(),
		Requests:           c.requests.Load(),
		Rejected:           c.rejected.Load(),
		Batches:            c.batches.Load(),
		SnapshotAgeSeconds: s.snapshotAge(),
		LastFlushError:     flushErr,
		Retries:            c.retries.Load(),
		Quarantined:        c.quarantined.Load(),
		PartialResponses:   c.partials.Load(),
		StateSalvaged:      s.salvaged,
		AnalyticVerdicts:   c.tierTotal(autotune.TierAnalytic),
		RefinedVerdicts:    c.tierTotal(autotune.TierRefined),
		RefineQueueDepth:   len(s.refineCh),
		RefinedNetworks:    c.refineDone.Load(),
		Cluster:            s.clusterHealth(),
	}
	if s.breaker != nil {
		h.Breaker = s.breaker.State().String()
	}
	writeJSON(w, http.StatusOK, h)
}
