// Package cluster is the peer layer that turns N tuned replicas into one
// logically-shared tuning service. Each replica runs the same static
// configuration: the full peer list, its own advertise address, and a
// replication factor. A consistent-hash ring assigns every request key a
// primary owner and (replication factor - 1) secondary owners; a replica
// that does not own a key proxies the request to the primary and fails over
// to the secondary when the primary errors or is detected down, so clients
// may POST to any replica. Verdicts an owner computes are replicated to the
// key's other owners; writes destined for a peer that is down are queued as
// bounded hinted handoff and replayed when the membership probe loop sees
// the peer rejoin. The package holds the mechanism only — ring, membership,
// peer client, handoff queue — and no HTTP handlers; internal/tuned wires
// it into the daemon.
package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Config is one replica's static view of the cluster. The zero value means
// "not clustered": Enabled reports false and the daemon runs standalone,
// byte-for-byte as before.
type Config struct {
	// Self is this replica's advertise address (scheme://host:port), the
	// name peers know it by. It must appear in Peers.
	Self string
	// Peers is the full static replica list, self included. Every replica
	// must run the identical list (order-insensitive — the ring hashes
	// addresses, not positions).
	Peers []string
	// Replicas is the replication factor: how many owners the ring assigns
	// each key (default 2, capped at len(Peers)).
	Replicas int
	// ProbeInterval is the peer health-check cadence (default 1s). After a
	// failed probe the interval backs off exponentially, capped at
	// ProbeBackoffMax — the RetryPolicy shape on the membership plane.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the probe backoff (default 15s).
	ProbeBackoffMax time.Duration
}

// Enabled reports whether this daemon is part of a cluster.
func (c Config) Enabled() bool { return len(c.Peers) > 0 }

// Others returns the peer list without self.
func (c Config) Others() []string {
	out := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		if p != c.Self {
			out = append(out, p)
		}
	}
	return out
}

// Validate rejects a cluster configuration that cannot work: a malformed
// peer address, an advertise address missing from the peer list, or a
// replication factor outside [1, len(Peers)]. A disabled (zero) config is
// always valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	seen := make(map[string]bool, len(c.Peers))
	for _, p := range c.Peers {
		if err := validatePeerAddr(p); err != nil {
			return err
		}
		if seen[p] {
			return fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if c.Self == "" {
		return fmt.Errorf("cluster: -peers set without an advertise address for this replica")
	}
	if !seen[c.Self] {
		return fmt.Errorf("cluster: advertise address %q is not in the peer list", c.Self)
	}
	if c.Replicas < 0 || c.Replicas > len(c.Peers) {
		return fmt.Errorf("cluster: replication factor %d outside [1, %d peers]", c.Replicas, len(c.Peers))
	}
	if c.ProbeInterval < 0 || c.ProbeBackoffMax < 0 {
		return fmt.Errorf("cluster: negative probe timing")
	}
	return nil
}

// validatePeerAddr requires a usable absolute http(s) base URL.
func validatePeerAddr(addr string) error {
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("cluster: peer %q: %v", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("cluster: peer %q: scheme must be http or https", addr)
	}
	if u.Host == "" {
		return fmt.Errorf("cluster: peer %q: missing host", addr)
	}
	if u.Path != "" && u.Path != "/" {
		return fmt.Errorf("cluster: peer %q: must be a base URL without a path", addr)
	}
	return nil
}

// ParsePeers splits and validates a comma-separated -peers flag value.
func ParsePeers(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var peers []string
	for _, p := range strings.Split(csv, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/"))
		if p == "" {
			return nil, fmt.Errorf("cluster: empty entry in peer list %q", csv)
		}
		if err := validatePeerAddr(p); err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// Normalized returns c with the documented defaults filled in.
func (c Config) Normalized() Config {
	if c.Replicas < 1 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Peers) {
		c.Replicas = len(c.Peers)
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeBackoffMax == 0 {
		c.ProbeBackoffMax = 15 * time.Second
	}
	return c
}
