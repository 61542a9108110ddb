// Package tuned is the tuning-as-a-service daemon behind cmd/tuned: a
// long-running HTTP server wrapping the network tuner, with the shared
// state-carrying cache as its source of truth. Clients POST a network
// description to /v1/tune and receive per-layer verdicts; identical
// in-flight requests collapse across remote callers through the cache's
// singleflight dedup, concurrent distinct networks merge into one transfer
// pool through the request batcher, and an admission controller sheds load
// beyond the configured measurement budget with 429 + Retry-After.
package tuned

import "sync"

// admission is the server's load-shedding gate. The unit of account is the
// measurement: one tuning request is admitted with the worst-case number of
// fresh measurements it can trigger (request.Cost: per distinct search the
// cache does not cover, the budget it has left to spend), and releases that
// reservation when it completes. A request that would push the in-flight
// total over the cap is rejected — the HTTP layer turns that into 429 with a
// Retry-After — except when the server is idle: a request too big for the
// cap alone still runs, it just runs by itself. Only requests that will
// measure come here: one the cache fully answers is served before the gate
// (serveTune), so it is never shed.
type admission struct {
	max int64 // 0 = unlimited

	mu       sync.Mutex
	inflight int64
}

// acquire reserves cost in-flight measurements, reporting whether the
// request is admitted.
func (a *admission) acquire(cost int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.max > 0 && a.inflight > 0 && a.inflight+cost > a.max {
		return false
	}
	a.inflight += cost
	return true
}

// release returns a reservation.
func (a *admission) release(cost int64) {
	a.mu.Lock()
	a.inflight -= cost
	a.mu.Unlock()
}

// load reports the currently reserved measurement budget.
func (a *admission) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
