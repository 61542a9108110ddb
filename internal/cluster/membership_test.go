package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func membershipConfig() Config {
	return Config{
		Self:            "http://127.0.0.1:9911",
		Peers:           threePeers(),
		ProbeInterval:   5 * time.Millisecond,
		ProbeBackoffMax: 20 * time.Millisecond,
	}.Normalized()
}

// A peer whose probes fail goes down; when probes succeed again it comes
// back up and OnRejoin fires exactly once per rejoin.
func TestMembershipDetectsDownAndRejoin(t *testing.T) {
	cfg := membershipConfig()
	peerB := cfg.Peers[1]

	var dead sync.Map // addr -> bool
	dead.Store(peerB, true)
	var rejoins atomic.Int64
	m := NewMembership(cfg,
		func(addr string) error {
			if v, ok := dead.Load(addr); ok && v.(bool) {
				return errors.New("unreachable")
			}
			return nil
		},
		func(addr string) {
			if addr != peerB {
				t.Errorf("rejoin fired for %s, want %s", addr, peerB)
			}
			rejoins.Add(1)
		})
	m.Start()
	defer m.Stop()

	waitFor(t, "peer B marked down", func() bool { return !m.Up(peerB) })
	if !m.Up(cfg.Peers[2]) {
		t.Fatal("healthy peer C marked down")
	}

	dead.Store(peerB, false)
	waitFor(t, "peer B rejoined", func() bool { return m.Up(peerB) && rejoins.Load() == 1 })

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d peers, want 2 (self excluded)", len(snap))
	}
	for _, p := range snap {
		if !p.Up {
			t.Errorf("peer %s down in snapshot after recovery", p.Addr)
		}
	}
}

// MarkDown is the passive path: it flips state immediately, without waiting
// for a probe, and the probe loop repairs it.
func TestMembershipMarkDown(t *testing.T) {
	cfg := membershipConfig()
	peerC := cfg.Peers[2]
	var rejoins atomic.Int64
	m := NewMembership(cfg, func(string) error { return nil }, func(string) { rejoins.Add(1) })
	if !m.Up(peerC) {
		t.Fatal("peers must start optimistically up")
	}
	m.MarkDown(peerC)
	if m.Up(peerC) {
		t.Fatal("MarkDown did not take")
	}
	m.MarkDown(peerC) // idempotent: no double transition
	m.Start()
	defer m.Stop()
	waitFor(t, "probe repaired the passive mark", func() bool { return m.Up(peerC) && rejoins.Load() == 1 })
	// Unknown addresses are never up.
	if m.Up("http://nobody:1") {
		t.Fatal("unknown address reported up")
	}
}

// Down is the detector's verdict as a signal: open while the peer is up,
// closed by MarkDown or by a failed probe, and a fresh open channel once a
// probe brings the peer back. Closing is once per up→down flip.
func TestMembershipDownSignal(t *testing.T) {
	cfg := membershipConfig()
	peerB, peerC := cfg.Peers[1], cfg.Peers[2]
	var deadB atomic.Bool
	m := NewMembership(cfg, func(addr string) error {
		if addr == peerB && deadB.Load() {
			return errors.New("unreachable")
		}
		return nil
	}, nil)
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if m.Down("http://nobody:1") != nil {
		t.Fatal("unknown address got a channel")
	}

	// Passive plane: MarkDown closes the channel, a second MarkDown is a
	// no-op (a double close would panic).
	downC := m.Down(peerC)
	if downC == nil || closed(downC) {
		t.Fatal("channel of an up peer must be open")
	}
	m.MarkDown(peerC)
	m.MarkDown(peerC)
	if !closed(downC) || !closed(m.Down(peerC)) {
		t.Fatal("MarkDown did not close the down channel")
	}

	// Probe plane: a failed probe closes it too.
	downB := m.Down(peerB)
	deadB.Store(true)
	m.Start()
	defer m.Stop()
	select {
	case <-downB:
	case <-time.After(5 * time.Second):
		t.Fatal("failed probe did not close the down channel")
	}

	// Rejoin: a successful probe installs a fresh open channel.
	deadB.Store(false)
	waitFor(t, "both peers back up", func() bool { return m.Up(peerB) && m.Up(peerC) })
	for _, c := range []struct {
		addr string
		old  <-chan struct{}
	}{{peerB, downB}, {peerC, downC}} {
		if ch := m.Down(c.addr); ch == c.old || closed(ch) {
			t.Errorf("%s: after rejoin the down channel is not a fresh open one", c.addr)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
