package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func threePeers() []string {
	return []string{"http://127.0.0.1:9911", "http://127.0.0.1:9912", "http://127.0.0.1:9913"}
}

// Every replica must compute identical ownership from the shared static
// peer list, regardless of list order — the ring is the cluster's only
// coordination mechanism.
func TestRingAgreementIsOrderInsensitive(t *testing.T) {
	peers := threePeers()
	shuffled := []string{peers[2], peers[0], peers[1]}
	a, b := NewRing(peers), NewRing(shuffled)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("V100|64|7|true|req-%d", i)
		if got, want := b.Owners(key, 2), a.Owners(key, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q: ring built from shuffled peers owns %v, want %v", key, got, want)
		}
	}
}

// Owners returns n distinct peers, primary first, stable across calls.
func TestRingOwners(t *testing.T) {
	r := NewRing(threePeers())
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("key %q: %d owners, want 2", key, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("key %q: duplicate owner %q", key, owners[0])
		}
		if owners[0] != r.Primary(key) {
			t.Fatalf("key %q: Primary %q != Owners[0] %q", key, r.Primary(key), owners[0])
		}
		if again := r.Owners(key, 2); !reflect.DeepEqual(again, owners) {
			t.Fatalf("key %q: ownership unstable: %v then %v", key, owners, again)
		}
	}
	// n capped at the peer count; zero peers/zero n degenerate cleanly.
	if owners := r.Owners("k", 99); len(owners) != 3 {
		t.Fatalf("over-asked owners = %v, want all 3 peers", owners)
	}
	if owners := r.Owners("k", 0); owners != nil {
		t.Fatalf("0 owners = %v, want nil", owners)
	}
}

// The vnode count must spread keys across a small cluster without any peer
// starving: over many keys, every peer owns a reasonable share both as
// primary and as any-owner.
func TestRingBalance(t *testing.T) {
	peers := threePeers()
	r := NewRing(peers)
	primary := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		primary[r.Primary(fmt.Sprintf("V100|16|3|false|net-%d|shape-%d", i, i*31))]++
	}
	for _, p := range peers {
		share := float64(primary[p]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("peer %s primary share %.2f outside [0.15, 0.55]", p, share)
		}
	}
}

// Removing one peer must only move the keys that peer owned: consistent
// hashing's point.
func TestRingStabilityUnderPeerLoss(t *testing.T) {
	peers := threePeers()
	full := NewRing(peers)
	reduced := NewRing(peers[:2])
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Primary(key), reduced.Primary(key)
		if before == peers[2] {
			continue // had to move
		}
		if before != after {
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("%d keys not owned by the removed peer still moved; consistent hashing must keep them", moved)
	}
}

func TestConfigValidate(t *testing.T) {
	peers := threePeers()
	valid := Config{Self: peers[0], Peers: peers, Replicas: 2}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"self not in peers", Config{Self: "http://127.0.0.1:1", Peers: peers}},
		{"no self", Config{Peers: peers}},
		{"malformed peer", Config{Self: peers[0], Peers: []string{peers[0], "127.0.0.1:9912"}}},
		{"peer with path", Config{Self: peers[0], Peers: []string{peers[0], "http://h:1/x"}}},
		{"duplicate peer", Config{Self: peers[0], Peers: []string{peers[0], peers[0]}}},
		{"replicas over peers", Config{Self: peers[0], Peers: peers, Replicas: 4}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" http://a:1, http://b:2/ ,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if !reflect.DeepEqual(peers, want) {
		t.Fatalf("parsed %v, want %v", peers, want)
	}
	if p, err := ParsePeers(""); err != nil || p != nil {
		t.Fatalf("empty list: %v, %v", p, err)
	}
	for _, bad := range []string{"http://a:1,,http://b:2", "ftp://a:1", "http://a:1,b:2", "http://"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

// Normalized fills defaults without disturbing explicit settings.
func TestConfigNormalized(t *testing.T) {
	c := Config{Self: "http://a:1", Peers: threePeers()}.Normalized()
	if c.Replicas != 2 || c.ProbeInterval == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	two := Config{Peers: []string{"http://a:1", "http://b:2"}, Replicas: 5}.Normalized()
	if two.Replicas != 2 {
		t.Fatalf("replicas not capped at peer count: %d", two.Replicas)
	}
}
