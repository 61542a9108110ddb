package tuned

import (
	"sync"

	"repro/internal/autotune"
)

// Replayed replies: the hit lane's answers, kept and written again. A POST
// the cache fully answers produces the same bytes every time while the
// verdicts it read have not changed, so serveTune records what it wrote,
// keyed by the raw request body, and the endpoint's handler answers an
// identical body from that record before parsing it — with the side effects
// the hit lane would have had: the same entry lookups, the one request and
// the same verdict tallies. Client bodies (POST /v1/tune) and forwarded
// envelopes (POST /v1/cluster/tune) are recorded in two sets, and each set
// answers only its own endpoint.

// replayMaxBytes bounds one set's recorded bodies and replies together;
// reaching it drops the set wholesale. The zoo's six replies total ≈ 29 KB.
const replayMaxBytes = 1 << 20

// verdictTally is a reply's bookings in the counters' tier × kind grid.
type verdictTally [autotune.TierRefined + 1][autotune.ImplicitGEMM + 1]int32

// reply is one recorded hit-lane answer: the searches its probe covered with
// the verdicts it read there, the request budget it read them at, and what it
// booked and wrote.
type reply struct {
	arch     string
	searches []autotune.CoveredSearch
	budget   int
	tally    verdictTally
	out      []byte
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

// record keeps what the hit lane just wrote for req in req's record set,
// unless the refinement epoch read before the probe has moved since. Only an
// answer whose side effects a replay reproduces is kept: with no partial and
// no analytic verdict, respond booked the tallies and enqueued no refinement.
func (s *Server) record(req *request, epoch uint64, covered []autotune.CoveredSearch,
	verdicts []autotune.LayerVerdict, out []byte) {
	if req.replies == nil || epoch != s.refineEpoch.Load() {
		return
	}
	rp := &reply{arch: req.arch.Name, searches: covered, budget: req.tune.Budget, out: out}
	for _, v := range verdicts {
		if v.Partial || v.Tier == autotune.TierAnalytic {
			return
		}
		rp.tally[v.Tier][v.Kind]++
	}
	req.replies.put(req.body, rp, epoch)
}

// replay answers body from its reply recorded in rs, booking what the hit
// lane books, and returns the bytes to write; nil sends the request down the
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
func (s *Server) replay(rs *replies, body []byte) []byte {
	rp := rs.get(body, s.refineEpoch.Load())
	if rp == nil {
		return nil
	}
	for i := range rp.searches {
		if !s.cache.Holds(rp.arch, &rp.searches[i], rp.budget, s.cfg.Resume) {
			return nil
		}
	}
	s.count.requests.Add(1)
	for tier := range rp.tally {
		for kind, n := range rp.tally[tier] {
			if n > 0 {
				s.count.verdicts[tier][kind].Add(int64(n))
			}
		}
	}
	return rp.out
}
