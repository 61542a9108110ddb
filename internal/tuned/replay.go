package tuned

import (
	"sync"

	"repro/internal/autotune"
)

// Replayed replies: answers that read nothing but the request body and
// state a replay can check, kept and written again. A POST the cache fully
// answers (the hit lane) produces the same bytes every time while the
// verdicts it read have not changed; one whose probe missed while the
// breaker was open (the analytic tier) produces the same bytes while the
// probe would still miss, the breaker is still open and the tier's
// calibration has not moved. So serveTune records what it wrote on either
// path, keyed by the raw request body, and the endpoint's handler answers an
// identical body from that record before parsing it — with the side effects
// the full path would have had: the same entry lookups, the same breaker
// and calibration reads, the one request, the same verdict tallies and, for
// an analytic answer, the same refinement enqueue. Client bodies (POST
// /v1/tune) and forwarded envelopes (POST /v1/cluster/tune) are recorded in
// two sets, and each set answers only its own endpoint.

// replayMaxBytes bounds one set's recorded bodies and replies together;
// reaching it drops the set wholesale. The zoo's six hit-lane replies total
// ≈ 29 KB, its six analytic replies ≈ 41 KB.
const replayMaxBytes = 1 << 20

// verdictTally is a reply's bookings in the counters' tier × kind grid.
type verdictTally [autotune.TierRefined + 1][autotune.ImplicitGEMM + 1]int32

// reply is one recorded answer: the probe's trajectory with the verdicts it
// read there, the request budget it read them at, and what it booked and
// wrote. An analytic answer's trajectory ends with the search the probe
// missed; refine is then the request respond enqueued for refinement, its
// Key memoised so the shared value stays read-only, and cal the calibration
// factor its verdicts were priced at. A hit-lane reply has neither.
type reply struct {
	arch     string
	searches []autotune.CoveredSearch
	budget   int
	tally    verdictTally
	out      []byte
	refine   *request
	cal      float64
}

// replies is a record set: the replies of one refinement epoch, keyed by body.
type replies struct {
	mu     sync.Mutex
	epoch  uint64
	bytes  int
	byBody map[string]*reply
}

// get returns the reply recorded for body if the set is still of epoch.
func (rs *replies) get(body []byte, epoch uint64) *reply {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.epoch != epoch {
		return nil
	}
	return rs.byBody[string(body)]
}

// put records rp for body at epoch, in place of any reply body had. A reply
// of another epoch, or one that would take the set past replayMaxBytes,
// replaces the whole set.
func (rs *replies) put(body []byte, rp *reply, epoch uint64) {
	size := len(body) + len(rp.out)
	if size > replayMaxBytes {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.byBody == nil {
		rs.byBody = make(map[string]*reply)
	}
	if rs.epoch != epoch {
		clear(rs.byBody)
		rs.epoch, rs.bytes = epoch, 0
	}
	if old := rs.byBody[string(body)]; old != nil {
		rs.bytes -= len(body) + len(old.out)
	}
	if rs.bytes+size > replayMaxBytes {
		clear(rs.byBody)
		rs.bytes = 0
	}
	rs.byBody[string(body)] = rp
	rs.bytes += size
}

// record keeps rp, what serveTune just wrote for req after probe, in req's
// record set, unless the refinement epoch read before the probe has moved
// since. Only an answer whose side effects a replay reproduces is kept: the
// hit lane's with no partial and no analytic verdict, for which respond
// booked the tallies and enqueued no refinement, and the breaker-open
// branch's (rp.refine set), every verdict analytic, for which respond booked
// the tallies and enqueued req. The analytic answers of admission overflow
// and the cluster's local fallback depend on load and on which peers are
// up; their callers never record them.
func (s *Server) record(req *request, epoch uint64, rp *reply, probe autotune.Probe,
	verdicts []autotune.LayerVerdict, out []byte) {
	if req.replies == nil || epoch != s.refineEpoch.Load() {
		return
	}
	for _, v := range verdicts {
		if v.Partial || (v.Tier == autotune.TierAnalytic) != (rp.refine != nil) {
			return
		}
		rp.tally[v.Tier][v.Kind]++
	}
	if rp.refine != nil {
		rp.refine.Key()
	}
	rp.arch, rp.searches, rp.budget, rp.out = req.arch.Name, probe.Searches(), req.tune.Budget, out
	req.replies.put(req.body, rp, epoch)
}

// replay answers body from its reply recorded in rs, booking what the full
// path books, and returns the bytes to write; nil sends the request down the
// full path.
//
// The check is sound because the hit lane's answer is a pure function of the
// body, the verdict of each search its probe covers, refinedKeys and the
// fixed server config. The reply keeps the verdicts its bytes were derived
// from, and the refinement epoch covers refinedKeys. So each recorded search
// is asked of Cache.Holds again — at the recorded budget and the server's
// Resume, as the probe asked it, so hits, LRU recency and TTL expiry move as
// the probe would have moved them — and any entry gone, rewritten with
// another verdict or, under Resume, below the budget fails the replay. A
// write landing between the probe and record leaves a reply whose verdicts
// no longer match, so it is never replayed; one that rewrites an equal
// verdict costs nothing.
//
// An analytic answer is a pure function of the body and the calibration
// factor it is priced at: the tier reads no cache and its scans are
// memoised functions of their spaces. What sends a body there is the
// probe's miss and the open breaker. So the replay walks the full path's
// checks in its order: the covered prefix still held (Cache.Holds), the
// missed search still missed (Cache.Misses), the breaker read once where
// serveTune reads it, then analyticFor, which refits exactly when the full
// path's would, and whose factor must be the recorded one. A write that
// moves neither the probe nor the factor costs nothing.
func (s *Server) replay(rs *replies, body []byte) []byte {
	rp := rs.get(body, s.refineEpoch.Load())
	if rp == nil {
		return nil
	}
	held := rp.searches
	if rp.refine != nil {
		held = held[:len(held)-1]
	}
	for i := range held {
		if !s.cache.Holds(rp.arch, &held[i], rp.budget, s.cfg.Resume) {
			return nil
		}
	}
	if rp.refine != nil && !s.stillAnalytic(rp) {
		return nil
	}
	s.count.requests.Add(1)
	for tier := range rp.tally {
		for kind, n := range rp.tally[tier] {
			if n > 0 {
				s.count.verdicts[tier][kind].Add(int64(n))
			}
		}
	}
	if rp.refine != nil {
		s.enqueueRefine(rp.refine)
	}
	return rp.out
}

// stillAnalytic runs the rest of the full path's checks on an analytic reply
// whose covered prefix holds: its missed search still missed, the breaker
// still open, the calibration factor unmoved.
func (s *Server) stillAnalytic(rp *reply) bool {
	missed := &rp.searches[len(rp.searches)-1].Search
	if !s.cache.Misses(rp.arch, missed, rp.budget, s.cfg.Resume) ||
		s.breaker.State() != autotune.BreakerOpen {
		return false
	}
	_, cal := s.analyticFor(rp.refine.arch)
	return cal == rp.cal
}
