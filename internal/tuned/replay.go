package tuned

import (
	"net/http"
	"sync"

	"repro/internal/autotune"
)

// Replayed replies: the hit lane's answers, kept and written again. A client
// POST the cache fully answers produces the same bytes every time while no
// entry it reads has changed, so serveTune records what it wrote, keyed by
// the raw request body, and handleTune answers an identical body from that
// record before parsing it — with the side effects the hit lane would have
// had: the same entry lookups, the one request and the same verdict tallies.

// replayMaxBytes bounds the recorded bodies and replies together; reaching
// it drops the record set wholesale. The zoo's six replies total ≈ 29 KB.
const replayMaxBytes = 1 << 20

// replayStamp is the state a recorded reply was derived from, read before
// the probe: the cache generation and the refinement epoch. A reply is
// replayed only while both read the same.
type replayStamp struct{ cache, refined uint64 }

func (s *Server) replayStamp() replayStamp {
	return replayStamp{s.cache.Generation(), s.refineEpoch.Load()}
}

// verdictTally is a reply's bookings in the counters' tier × kind grid.
type verdictTally [autotune.TierRefined + 1][autotune.ImplicitGEMM + 1]int32

// reply is one recorded hit-lane answer: the searches its probe covered and
// what it booked and wrote.
type reply struct {
	arch     string
	searches []autotune.Search
	tally    verdictTally
	out      []byte
}

// replies is the record set: the replies of one stamp, keyed by body.
type replies struct {
	mu     sync.Mutex
	stamp  replayStamp
	bytes  int
	byBody map[string]*reply
}

// get returns the reply recorded for body if the set is still current at now.
func (rs *replies) get(body []byte, now replayStamp) *reply {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.stamp != now {
		return nil
	}
	return rs.byBody[string(body)]
}

// put records rp for body at stamp. A reply of another stamp, or one that
// would take the set past replayMaxBytes, replaces the whole set.
func (rs *replies) put(body []byte, rp *reply, stamp replayStamp) {
	size := len(body) + len(rp.out)
	if size > replayMaxBytes {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.byBody == nil {
		rs.byBody = make(map[string]*reply)
	}
	if rs.stamp != stamp || rs.bytes+size > replayMaxBytes {
		clear(rs.byBody)
		rs.stamp, rs.bytes = stamp, 0
	}
	rs.byBody[string(body)] = rp
	rs.bytes += size
}

// record keeps what the hit lane just wrote for a client request, read at
// stamp, unless the stamp has moved since. Only an answer whose side effects
// a replay reproduces is kept: with no partial and no analytic verdict,
// respond booked the tallies and enqueued no refinement.
func (s *Server) record(req *request, stamp replayStamp, searches []autotune.Search,
	verdicts []autotune.LayerVerdict, out []byte) {
	if req.body == nil || stamp != s.replayStamp() {
		return
	}
	rp := &reply{arch: req.arch.Name, searches: searches, out: out}
	for _, v := range verdicts {
		if v.Partial || v.Tier == autotune.TierAnalytic {
			return
		}
		rp.tally[v.Tier][v.Kind]++
	}
	s.replies.put(req.body, rp, stamp)
}

// replay answers body from its recorded reply and reports whether it did.
// Each recorded search is looked up again, so hits, LRU recency and TTL
// expiry move as the probe would have moved them; a miss — an entry expired
// since — sends the request down the full path.
func (s *Server) replay(w http.ResponseWriter, body []byte) bool {
	rp := s.replies.get(body, s.replayStamp())
	if rp == nil {
		return false
	}
	for _, q := range rp.searches {
		if _, ok := s.cache.Entry(rp.arch, q.Kind, q.Shape); !ok {
			return false
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
	writeBody(w, http.StatusOK, rp.out)
	return true
}
