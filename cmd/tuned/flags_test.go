package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command's main instead of the tests when the first
// argument is "tuned-main", so a test can start the command as a process and
// read its exit status.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "tuned-main" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tuned.New refuses -request-timeout without -resume before it reads any
// state or the command binds a port; the command prints New's one line and
// exits 2, as for any flag validate rejects.
func TestRequestTimeoutWithoutResumeExits2(t *testing.T) {
	out, err := exec.Command(os.Args[0], "tuned-main", "-request-timeout", "1s").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("got %v, want exit status 2; output %q", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "-request-timeout needs -resume") {
		t.Errorf("output %q, want one line naming -request-timeout and -resume", out)
	}
}

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	if _, err := (flagConfig{}).validate(); err != nil {
		t.Fatalf("zero flags rejected: %v", err)
	}
	ccfg, err := flagConfig{
		budget: 400, batchWindow: 20 * time.Millisecond, chaosFailRate: 0.1,
		breakerThreshold: 0.5, requestTimeout: time.Second,
		peers:     "http://127.0.0.1:9911,http://127.0.0.1:9912,http://127.0.0.1:9913",
		advertise: "http://127.0.0.1:9911",
		replicas:  2,
	}.validate()
	if err != nil {
		t.Fatalf("full valid config rejected: %v", err)
	}
	if !ccfg.Enabled() || len(ccfg.Peers) != 3 || ccfg.Self != "http://127.0.0.1:9911" {
		t.Fatalf("cluster config not assembled: %+v", ccfg)
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	peers := "http://127.0.0.1:9911,http://127.0.0.1:9912"
	cases := []struct {
		name    string
		f       flagConfig
		wantErr string
	}{
		{"negative budget", flagConfig{budget: -1}, "-budget"},
		{"oversized budget", flagConfig{budget: 1 << 20}, "-budget"},
		{"negative max-inflight", flagConfig{maxInflight: -1}, "-max-inflight"},
		{"negative workers", flagConfig{workers: -2}, "-workers"},
		{"negative refine workers", flagConfig{refineWorkers: -1}, "-refine-workers"},
		{"negative cache bytes", flagConfig{cacheBytes: -1}, "-cache-bytes"},
		{"negative batch window", flagConfig{batchWindow: -time.Second}, "-batch-window"},
		{"negative request timeout", flagConfig{requestTimeout: -1}, "-request-timeout"},
		{"negative snapshot interval", flagConfig{snapshotInterval: -1}, "-snapshot-interval"},
		{"negative breaker cooldown", flagConfig{breakerCooldown: -1}, "-breaker-cooldown"},
		{"chaos rate one", flagConfig{chaosFailRate: 1}, "-chaos-fail-rate"},
		{"chaos rate negative", flagConfig{chaosFailRate: -0.1}, "-chaos-fail-rate"},
		{"breaker threshold over one", flagConfig{breakerThreshold: 1.5}, "-breaker-threshold"},
		{"malformed peers", flagConfig{peers: "127.0.0.1:9911", advertise: "127.0.0.1:9911"}, "-peers"},
		{"empty peer entry", flagConfig{peers: "http://a:1,,http://b:2", advertise: "http://a:1"}, "-peers"},
		{"advertise missing", flagConfig{peers: peers}, "-advertise"},
		{"advertise not in peers", flagConfig{peers: peers, advertise: "http://10.0.0.9:1"}, "not in the peer list"},
		{"advertise without peers", flagConfig{advertise: "http://127.0.0.1:9911"}, "-advertise set without -peers"},
		{"replicas without peers", flagConfig{replicas: 2}, "-replicas set without -peers"},
		{"replicas over peers", flagConfig{peers: peers, advertise: "http://127.0.0.1:9911", replicas: 3}, "replication factor"},
		{"negative probe interval", flagConfig{peers: peers, advertise: "http://127.0.0.1:9911", probeInterval: -1}, "-probe-interval"},
	}
	for _, c := range cases {
		_, err := c.f.validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "tuned: ") {
			t.Errorf("%s: error %q not prefixed for the one-line exit", c.name, err)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}
