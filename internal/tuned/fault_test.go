package tuned

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/autotune"
	"repro/internal/chaos"
)

// Fault-tolerance e2e: the daemon's crash-safety and degradation story —
// request deadlines answer best-so-far and resume, timed snapshots persist
// without shutdown, a torn state file salvages on boot, and seeded fault
// injection leaves every verdict untouched.

// New refuses a request timeout without Resume: a cut-short verdict would
// be stored, and its re-POST served from the cache as a final hit.
func TestNewRefusesRequestTimeoutWithoutResume(t *testing.T) {
	srv, err := New(Config{RequestTimeout: time.Second})
	if err == nil {
		srv.Close()
		t.Fatal("New accepted RequestTimeout without Resume")
	}
	if !strings.Contains(err.Error(), "-request-timeout needs -resume") {
		t.Errorf("error %q does not name the flags", err)
	}
	srv, err = New(Config{RequestTimeout: time.Second, Resume: true})
	if err != nil {
		t.Fatalf("New refused RequestTimeout with Resume: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// A request that cannot finish inside -request-timeout answers 200 with
// best-so-far verdicts marked partial; because the truncated engine state
// is persisted, re-POSTing the identical request continues the search and
// eventually completes it.
func TestServerRequestTimeoutPartialThenResume(t *testing.T) {
	opts := tinyOpts(40, 9)
	opts.Workers = 1
	opts.MeasureLatency = 4 * time.Millisecond
	srv, ts := newTestServer(t, Config{
		Tune: opts, Winograd: false, Resume: true,
		RequestTimeout: 60 * time.Millisecond,
	})
	desc := repro.DescribeNetwork(testArch.Name, netA()[:1])

	first, status := postTune(t, ts.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	if !first.Partial {
		t.Fatal("deadline-starved request not marked partial")
	}
	if len(first.Verdicts) != 1 || !first.Verdicts[0].Partial {
		t.Fatalf("partial response carries no partial verdict: %+v", first.Verdicts)
	}
	if !(first.Verdicts[0].Seconds > 0) {
		t.Error("partial verdict has no best-so-far measurement")
	}
	if got := srv.Measurements(); got == 0 || got >= 40 {
		t.Errorf("partial request measured %d configs, want a strict nonempty prefix of the budget", got)
	}

	// The same request, repeated, continues the persisted search until it
	// converges; progress is monotone so the loop is bounded.
	final := first
	for i := 0; final.Partial && i < 60; i++ {
		final, status = postTune(t, ts.URL, desc)
		if status != http.StatusOK {
			t.Fatalf("resume request %d: status %d", i, status)
		}
	}
	if final.Partial {
		t.Fatal("search never completed across repeated requests")
	}
	if final.Verdicts[0].Seconds > first.Verdicts[0].Seconds {
		t.Errorf("completed verdict %g worse than the partial one %g",
			final.Verdicts[0].Seconds, first.Verdicts[0].Seconds)
	}
	if h := getHealth(t, ts.URL); h.PartialResponses < 1 {
		t.Errorf("healthz partial_responses = %d, want >= 1", h.PartialResponses)
	}
}

// With -snapshot-interval set, the state file appears (and stays loadable)
// while the server is still running — no shutdown required — and /healthz
// reports the snapshot age.
func TestServerSnapshotIntervalFlushesInBackground(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	srv, ts := newTestServer(t, Config{
		Tune: tinyOpts(12, 5), Winograd: false,
		StatePath: state, SnapshotInterval: 15 * time.Millisecond,
	})
	if _, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, netA()[:1])); status != http.StatusOK {
		t.Fatalf("tune request: status %d", status)
	}

	// The snapshot is atomic, so whenever we look the file is complete. A
	// tick that fired while the tune was still running legitimately wrote an
	// empty cache, so keep looking until a tick after the tune shows up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		restored := autotune.NewCache()
		if err := restored.LoadFile(state); err == nil && restored.Len() > 0 {
			break
		} else if err != nil && !os.IsNotExist(err) {
			t.Fatalf("background snapshot not loadable: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no background snapshot holding the tuned entries appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The cache file is renamed into place before the flush writes its aux
	// files and stamps the snapshot time, so /healthz may still report no
	// snapshot for a moment after the file is complete: poll it too.
	for {
		h := getHealth(t, ts.URL)
		if h.SnapshotAgeSeconds >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz snapshot_age_seconds = %v after a flush, want >= 0", h.SnapshotAgeSeconds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// The crash-recovery acceptance path: a daemon killed mid-write leaves a
// torn state file; the next boot salvages the complete entries, sets the
// damaged file aside, reports state_salvaged on /healthz, and answers the
// repeated request purely from the salvaged state — zero fresh
// measurements.
func TestServerBootSalvagesTornState(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	opts := tinyOpts(12, 5)
	desc := repro.DescribeNetwork(testArch.Name, netA())
	cfg := Config{Tune: opts, Winograd: true, Warm: true, Resume: true, StatePath: state}

	srv1, ts1 := newTestServer(t, cfg)
	first, status := postTune(t, ts1.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("first boot: status %d", status)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the flushed file the way a mid-write kill would: cut the tail.
	// Every entry body survives; the envelope (and its checksum) do not.
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(state, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	h := getHealth(t, ts2.URL)
	if !h.StateSalvaged {
		t.Error("healthz does not report the salvage")
	}
	if _, err := os.Stat(state + ".corrupt"); err != nil {
		t.Errorf("torn file not set aside as .corrupt: %v", err)
	}

	second, status := postTune(t, ts2.URL, desc)
	if status != http.StatusOK {
		t.Fatalf("second boot: status %d", status)
	}
	if got := srv2.Measurements(); got != 0 {
		t.Errorf("rebooted server measured %d fresh configs, want 0 (pure replay from salvage)", got)
	}
	for i, v := range second.Verdicts {
		want := first.Verdicts[i]
		want.Shared = v.Shared // the replayed boot serves from cache by design
		if v != want {
			t.Errorf("verdict %d changed across the salvage: %+v != %+v", i, v, want)
		}
	}
	if second.NetworkSeconds != first.NetworkSeconds {
		t.Errorf("network seconds changed across the salvage: %g != %g",
			second.NetworkSeconds, first.NetworkSeconds)
	}
}

// Seeded fault injection under the engine's retry pipeline must be
// invisible in the response: verdicts and the fresh-measurement count
// match a fault-free direct run exactly, while /healthz shows the absorbed
// retries.
func TestServerChaosInjectionPreservesVerdicts(t *testing.T) {
	clean := tinyOpts(16, 7)
	opts := clean
	opts.Retry.MaxAttempts = 4 // strictly above the injector's streak cap
	srv, ts := newTestServer(t, Config{
		Tune: opts, Winograd: true,
		Chaos: chaos.Config{Seed: 1, FailRate: 0.2, MaxConsecutive: 2},
	})
	layers := netA()
	resp, status := postTune(t, ts.URL, repro.DescribeNetwork(testArch.Name, layers))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}

	direct, directCount := countMeasurements(t, layers,
		autotune.NetworkOptions{Tune: clean, Winograd: true})
	want := repro.DescribeVerdicts(direct)
	for i, v := range resp.Verdicts {
		got := v
		got.Shared = want[i].Shared
		if got != want[i] {
			t.Errorf("verdict %d under chaos: %+v != fault-free %+v", i, v, want[i])
		}
	}
	if got := srv.Measurements(); got != directCount {
		t.Errorf("chaos run measured %d fresh configs, fault-free run %d", got, directCount)
	}
	h := getHealth(t, ts.URL)
	if h.Retries == 0 {
		t.Error("healthz retries = 0 although faults were injected")
	}
	if h.Quarantined != 0 {
		t.Errorf("healthz quarantined = %d; the streak cap must keep every config alive", h.Quarantined)
	}
	if resp.Partial || h.PartialResponses != 0 {
		t.Error("chaos run spuriously partial")
	}
}
