package cluster

import (
	"sync"
	"time"
)

// Membership tracks which peers are reachable. Detection is two-plane:
// a background probe loop per peer (GET /healthz on the probe cadence,
// backing off exponentially — capped, the RetryPolicy shape — while a peer
// stays down) and passive marking by the request path (a failed forward or
// replication push calls MarkDown immediately, so routing reacts mid-sweep
// instead of waiting out a probe interval). A probe succeeding against a
// peer that was down flips it back up and fires OnRejoin — the hook the
// hinted-handoff drain hangs off.
type Membership struct {
	cfg      Config
	probe    func(addr string) error
	onRejoin func(addr string)

	mu    sync.Mutex
	peers map[string]*peerState

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type peerState struct {
	up          bool
	down        chan struct{} // closed on the up→down flip, replaced on rejoin
	consecFails int
	lastProbe   time.Time
	transitions int64 // up<->down flips since boot
}

// PeerHealth is one row of the peer table /healthz reports.
type PeerHealth struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
	// ConsecutiveFailures is the current failed-probe streak (0 when up).
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastProbeAgeSeconds is the age of the last probe attempt; -1 before
	// the first one.
	LastProbeAgeSeconds float64 `json:"last_probe_age_seconds"`
	// Transitions counts up<->down flips observed since boot.
	Transitions int64 `json:"transitions,omitempty"`
}

// NewMembership builds the tracker for cfg's peers (self excluded — a
// replica does not probe itself). probe performs one health check; onRejoin
// (optional) fires when a down peer answers a probe again. Peers start
// optimistically up: the first forward finds out the truth faster than the
// first probe tick would.
func NewMembership(cfg Config, probe func(addr string) error, onRejoin func(addr string)) *Membership {
	m := &Membership{cfg: cfg, probe: probe, onRejoin: onRejoin,
		peers: make(map[string]*peerState), stop: make(chan struct{})}
	for _, p := range cfg.Others() {
		m.peers[p] = &peerState{up: true, down: make(chan struct{})}
	}
	return m
}

// Start launches one probe loop per peer.
func (m *Membership) Start() {
	for addr := range m.peers {
		m.wg.Add(1)
		go m.probeLoop(addr)
	}
}

// Stop terminates the probe loops and waits for them.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// probeLoop health-checks one peer forever: on the plain cadence while the
// peer is up, backing off (doubling per consecutive failure, capped at
// ProbeBackoffMax) while it is down — a dead peer is not hammered, a
// rejoining one is noticed within the cap.
func (m *Membership) probeLoop(addr string) {
	defer m.wg.Done()
	delay := m.cfg.ProbeInterval
	for {
		select {
		case <-m.stop:
			return
		case <-time.After(delay):
		}
		err := m.probe(addr)
		m.mu.Lock()
		st := m.peers[addr]
		st.lastProbe = time.Now()
		if err == nil {
			rejoined := !st.up
			if rejoined {
				st.transitions++
				st.down = make(chan struct{})
			}
			st.up = true
			st.consecFails = 0
			m.mu.Unlock()
			if rejoined && m.onRejoin != nil {
				m.onRejoin(addr)
			}
			delay = m.cfg.ProbeInterval
			continue
		}
		if st.up {
			st.transitions++
			close(st.down)
		}
		st.up = false
		st.consecFails++
		fails := st.consecFails
		m.mu.Unlock()
		delay = m.cfg.ProbeInterval
		for i := 1; i < fails; i++ {
			delay *= 2
			if delay >= m.cfg.ProbeBackoffMax {
				delay = m.cfg.ProbeBackoffMax
				break
			}
		}
	}
}

// Up reports whether addr is currently believed reachable. Unknown
// addresses (not peers) report false.
func (m *Membership) Up(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.peers[addr]
	return st != nil && st.up
}

// MarkDown is the passive detection hook: the request path calls it the
// moment a forward or push to addr fails, so the very next request routes
// around the peer instead of waiting for the probe loop.
func (m *Membership) MarkDown(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.peers[addr]
	if st == nil || !st.up {
		return
	}
	st.up = false
	st.consecFails++
	st.transitions++
	close(st.down)
}

// Down returns a channel that is closed when addr goes down, whether by
// MarkDown or by a failed probe; while addr is down it is already closed,
// and a rejoin replaces it with a fresh one. A forward selects on it to
// leave a hung owner once the failure detector has given its verdict.
// Unknown addresses get nil, which never closes.
func (m *Membership) Down(addr string) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.peers[addr]; st != nil {
		return st.down
	}
	return nil
}

// Snapshot returns the peer table in deterministic (config) order.
func (m *Membership) Snapshot() []PeerHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerHealth, 0, len(m.peers))
	for _, addr := range m.cfg.Others() {
		st := m.peers[addr]
		if st == nil {
			continue
		}
		age := -1.0
		if !st.lastProbe.IsZero() {
			age = time.Since(st.lastProbe).Seconds()
		}
		out = append(out, PeerHealth{Addr: addr, Up: st.up,
			ConsecutiveFailures: st.consecFails, LastProbeAgeSeconds: age,
			Transitions: st.transitions})
	}
	return out
}
