package tuned

import (
	"net/http"
	"time"

	"repro/internal/autotune"
	"repro/internal/memsim"
)

// This file is the daemon's graceful-degradation machinery. The service's
// design goal after PR 7 was "never lose work"; this layer's is "never
// refuse an answer". Three triggers route a request to the instant
// analytic tier instead of a hard failure: an open measurement circuit
// breaker (the backend is down — a measured search could only fast-fail),
// admission overflow with AnalyticOverflow set (the budget is spoken for —
// 429 becomes an estimate), and a layer whose search died inside an
// otherwise-admitted sweep (the engine's NetworkOptions.Analytic fills it).
// Every analytically-answered network is enqueued for background
// refinement: a worker waits until the breaker is not open and the
// admission budget has room, runs the measured sweep against the shared
// cache, and marks the refined keys so later cache-served verdicts report
// Tier "refined".

const (
	// refineQueueCap bounds the refinement backlog; beyond it, new
	// analytic answers are served but not queued (counted as dropped — the
	// client's re-POST re-enqueues).
	refineQueueCap = 256
	// refinePollInterval is how often a waiting refinement worker re-checks
	// the breaker and the admission budget.
	refinePollInterval = 5 * time.Millisecond
)

// calibration is one fit of an analytic tier's factor and the cache write
// count (Cache.Writes) read before it.
type calibration struct {
	stamp  uint64
	factor float64
}

// analyticFor returns the per-architecture analytic tier, building it on
// first use and re-fitting its calibration whenever the cache has been
// written since the last fit — measured rows sharpen every later estimate,
// and a rewrite of a key moves them as much as a new one — and the factor
// of that fit.
func (s *Server) analyticFor(arch memsim.Arch) (*autotune.AnalyticDSE, float64) {
	s.anMu.Lock()
	defer s.anMu.Unlock()
	a := s.analytic[arch.Name]
	if a == nil {
		a = autotune.NewAnalyticDSE(arch)
		s.analytic[arch.Name] = a
	}
	stamp := s.cache.Writes()
	c, ok := s.calibrated[arch.Name]
	if !ok || c.stamp != stamp {
		c = calibration{stamp, a.Calibrate(s.cache)}
		s.calibrated[arch.Name] = c
	}
	return a, c.factor
}

// serveAnalytic answers a request entirely from the instant-verdict tier
// — 200, every verdict Tier "analytic" — and enqueues it for background
// refinement. The analytic tier consults no cache and takes no budget, so
// this path stays fast no matter how overloaded the measured path is. It
// returns the verdicts, the bytes written (nil after an error) and the
// calibration factor they were priced at.
func (s *Server) serveAnalytic(w http.ResponseWriter, req *request) ([]autotune.LayerVerdict, []byte, float64) {
	a, cal := s.analyticFor(req.arch)
	verdicts, err := a.NetworkKindsAt(req.layers, req.analyticKinds(), cal)
	if err != nil {
		errJSON(w, http.StatusInternalServerError, "%v", err)
		return nil, nil, 0
	}
	s.count.requests.Add(1)
	return verdicts, s.respond(w, req, verdicts), cal
}

// markTiers upgrades cache-served verdicts whose key the refinement queue
// has measured to Tier "refined". With no degradation configured the
// refined set is empty and this does nothing.
func (s *Server) markTiers(archName string, verdicts []autotune.LayerVerdict) {
	s.refineMu.Lock()
	if len(s.refinedKeys) > 0 {
		for i := range verdicts {
			v := &verdicts[i]
			if v.Tier == autotune.TierMeasured && v.Shared &&
				s.refinedKeys[refinedKey(archName, v.Kind, v.Layer.Shape.String())] {
				v.Tier = autotune.TierRefined
			}
		}
	}
	s.refineMu.Unlock()
}

func refinedKey(archName string, kind autotune.Kind, shape string) string {
	return archName + "|" + kind.String() + "|" + shape
}

// enqueueRefine queues an analytically-answered network for background
// measurement. A full queue or an already-pending identical request drops
// the job — the next analytic answer for it re-enqueues.
func (s *Server) enqueueRefine(req *request) {
	if s.refineCh == nil {
		return
	}
	s.refineMu.Lock()
	defer s.refineMu.Unlock()
	if _, pending := s.refineQueue[req.Key()]; pending {
		return
	}
	select {
	case s.refineCh <- req:
		s.refineQueue[req.Key()] = req
	default:
		s.count.refineDropped.Add(1)
	}
}

// refineLoop is one background refinement worker.
func (s *Server) refineLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.refineCh:
			s.refineOne(req)
		}
	}
}

// refineOne measures one queued network: wait until the breaker is not
// open and the admission budget has room (refinement always yields to
// foreground traffic), then run the measured sweep against the shared
// cache and mark the measured keys refined.
func (s *Server) refineOne(req *request) {
	var cost int64
	for {
		if s.breaker.State() != autotune.BreakerOpen {
			cost = req.Cost(s)
			if s.adm.acquire(cost) {
				break
			}
		}
		select {
		case <-s.stop:
			// Aborted by shutdown, not attempted: the job stays in
			// refineQueue so the final snapshot persists it and the next
			// boot re-enqueues it.
			return
		case <-time.After(refinePollInterval):
		}
	}
	defer s.adm.release(cost)
	// Only an attempted job — measured or failed — leaves the persisted
	// backlog.
	defer func() {
		s.refineMu.Lock()
		delete(s.refineQueue, req.Key())
		s.refineMu.Unlock()
	}()
	verdicts, err := autotune.TuneNetwork(req.arch, req.layers, s.cache, req.NetworkOptions(s))
	s.cache.Evict()
	measured := 0
	s.refineMu.Lock()
	for _, v := range verdicts {
		// A verdict that itself fell back to the analytic tier (the
		// breaker re-tripped mid-refinement) upgraded nothing; only
		// genuinely measured keys are marked.
		if v.Tier == autotune.TierMeasured {
			s.refinedKeys[refinedKey(req.arch.Name, v.Kind, v.Layer.Shape.String())] = true
			measured++
		}
	}
	if measured > 0 {
		// A recorded reply read the set before this write: tiers may have
		// moved from "measured" to "refined".
		s.refineEpoch.Add(1)
	}
	s.refineMu.Unlock()
	if err == nil && measured > 0 {
		s.count.refineDone.Add(1)
		// The refinement just upgraded cache entries this replica owns;
		// ship the measured upgrade to the key's other owners too.
		s.replicateRequest(req)
	} else {
		s.count.refineFailed.Add(1)
	}
}
