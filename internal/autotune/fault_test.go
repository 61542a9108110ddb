package autotune

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/conv"
)

// The fault-pipeline tests: the resilient measurement seam must absorb
// transient failures without changing any verdict the clean engine would
// reach, quarantine configs that never measure, defend against noisy
// readings with the bound floor, and degrade a deadline-cut run into an
// honest partial trace that resumes.

var errTransient = errors.New("transient device fault")

// flakyMeasurer wraps a clean measurer so that the first firstFails
// attempts on every config fail transiently; thread-safe for Workers > 1.
type flakyMeasurer struct {
	mu         sync.Mutex
	attempts   map[conv.Config]int
	firstFails int
	clean      Measurer
}

func newFlaky(clean Measurer, firstFails int) *flakyMeasurer {
	return &flakyMeasurer{attempts: make(map[conv.Config]int), firstFails: firstFails, clean: clean}
}

func (f *flakyMeasurer) measure(c conv.Config) (Measurement, bool, error) {
	f.mu.Lock()
	f.attempts[c]++
	n := f.attempts[c]
	f.mu.Unlock()
	if n <= f.firstFails {
		return Measurement{}, false, errTransient
	}
	m, ok := f.clean(c)
	return m, ok, nil
}

// The zero RetryPolicy with an error-free measurer is the documented
// bit-identical default path: TuneFallible over a lifted measurer must
// produce the exact trace Tune does, new counters included (all zero).
func TestFallibleZeroPolicyBitIdentical(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	want, err := Tune(sp, measure, smallOpts(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := TuneFallible(context.Background(), sp,
		func(c conv.Config) (Measurement, bool, error) { m, ok := measure(c); return m, ok, nil },
		smallOpts(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallible trace differs from clean trace:\n got %+v\nwant %+v", got, want)
	}
	if got.Retries != 0 || got.Quarantined != 0 || got.Remeasured != 0 || got.Partial {
		t.Errorf("clean run has fault bookkeeping: %+v", got)
	}
}

// countEvent is an Options.OnEvent sink counting one event kind into n.
func countEvent(kind Event, n *int) func(Event) {
	return func(e Event) {
		if e == kind {
			*n++
		}
	}
}

// Every config failing its first attempt and succeeding on retry must
// yield the exact clean verdict — retries are invisible to the search —
// with one retry booked per fresh measurement and an EventRetry firing
// once per retry.
func TestRetryAbsorbsTransientFailures(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	clean, err := Tune(sp, measure, smallOpts(60, 1))
	if err != nil {
		t.Fatal(err)
	}

	flaky := newFlaky(measure, 1)
	opts := smallOpts(60, 1)
	opts.Retry = RetryPolicy{MaxAttempts: 3}
	var hookRetries int
	opts.OnEvent = countEvent(EventRetry, &hookRetries)
	tr, err := TuneFallible(context.Background(), sp, flaky.measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Best != clean.Best || tr.BestM != clean.BestM {
		t.Errorf("verdict changed under transient failures: %v/%v != %v/%v",
			tr.Best, tr.BestM, clean.Best, clean.BestM)
	}
	if tr.Measurements != clean.Measurements || !reflect.DeepEqual(tr.History, clean.History) {
		t.Errorf("trajectory changed under transient failures: %d measurements vs %d",
			tr.Measurements, clean.Measurements)
	}
	if tr.Retries != tr.Measurements {
		t.Errorf("Retries = %d, want one per measurement (%d)", tr.Retries, tr.Measurements)
	}
	if hookRetries != tr.Retries {
		t.Errorf("EventRetry fired %d times, trace counts %d", hookRetries, tr.Retries)
	}
	if tr.Quarantined != 0 || tr.Partial {
		t.Errorf("unexpected quarantine/partial on a recoverable run: %+v", tr)
	}
}

// Configs that never stop failing are quarantined after MaxAttempts —
// booked as failed measurements — while the search completes on the
// remaining ones; OnEvent reports each as an EventQuarantine.
func TestQuarantinePermanentFailures(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	// Deterministic subset of permanently-dead configs, interleaving-free.
	dead := func(c conv.Config) bool { return ConfigHash(99, c, 0)%4 == 0 }
	backend := func(c conv.Config) (Measurement, bool, error) {
		if dead(c) {
			return Measurement{}, false, errTransient
		}
		m, ok := measure(c)
		return m, ok, nil
	}
	opts := smallOpts(60, 1)
	opts.Retry = RetryPolicy{MaxAttempts: 2}
	var hookQuarantines int
	opts.OnEvent = countEvent(EventQuarantine, &hookQuarantines)
	tr, err := TuneFallible(context.Background(), sp, backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Quarantined == 0 {
		t.Fatal("no config quarantined although a quarter of the space is dead")
	}
	if hookQuarantines != tr.Quarantined {
		t.Errorf("EventQuarantine fired %d times, trace counts %d", hookQuarantines, tr.Quarantined)
	}
	// Each quarantined config burned MaxAttempts-1 retries before giving up.
	if tr.Retries != tr.Quarantined*(opts.Retry.MaxAttempts-1) {
		t.Errorf("Retries = %d, want %d (MaxAttempts-1 per quarantined config)",
			tr.Retries, tr.Quarantined*(opts.Retry.MaxAttempts-1))
	}
	if !(tr.BestM.Seconds > 0) {
		t.Error("search found no verdict despite live configs remaining")
	}
	// Quarantined configs are booked: they appear in the history as failed
	// records and consume budget.
	failed := 0
	for _, h := range tr.History {
		if !h.OK {
			failed++
		}
	}
	if failed < tr.Quarantined {
		t.Errorf("history books %d failures, fewer than %d quarantines", failed, tr.Quarantined)
	}
}

// A backend that never measures anything must surface as "no valid
// configuration", not hang or panic.
func TestAllQuarantinedIsAnError(t *testing.T) {
	sp := mustSpace(t, true)
	opts := smallOpts(20, 1)
	opts.Retry = RetryPolicy{MaxAttempts: 2}
	_, err := TuneFallible(context.Background(), sp,
		func(conv.Config) (Measurement, bool, error) { return Measurement{}, false, errTransient },
		opts)
	if err == nil {
		t.Fatal("fully-dead backend produced a verdict")
	}
}

// The noisy-reading defense: a reading below the admissible I/O-bound
// floor is physically impossible, so the pipeline re-measures until
// MedianK readings are in hand and books the median; a clean reading far
// from the floor costs exactly one call.
func TestNoiseDefenseTakesMedian(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	// Find a valid config and its true reading.
	var cfg conv.Config
	var truth Measurement
	found := false
	for _, c := range sp.SeedConfigs() {
		if m, ok := measure(c); ok {
			cfg, truth, found = c, m, true
			break
		}
	}
	if !found {
		t.Fatal("no valid seed config")
	}
	floor := sp.BoundSeconds(cfg)
	if !(floor > 0) {
		t.Fatal("no bound floor for the test config")
	}

	policy := RetryPolicy{NoiseThreshold: 0.25, MedianK: 3}
	// First reading impossibly fast (half the floor), later readings true:
	// the median over {floor/2, truth, truth} is the truth.
	calls := 0
	noisy := func(c conv.Config) (Measurement, bool, error) {
		calls++
		if calls == 1 {
			return Measurement{Seconds: floor / 2}, true, nil
		}
		return truth, true, nil
	}
	out := newResilient(noisy, sp, policy, 1).run(context.Background(), cfg)
	if !out.ok || out.m != truth {
		t.Errorf("defense booked %+v (ok=%v), want the median truth %+v", out.m, out.ok, truth)
	}
	if out.remeasured != 2 {
		t.Errorf("remeasured = %d, want 2 (MedianK=3 minus the first reading)", out.remeasured)
	}

	// A reading comfortably above the suspicion band is booked as-is with
	// no extra calls.
	calls = 0
	clean := func(c conv.Config) (Measurement, bool, error) {
		calls++
		return Measurement{Seconds: floor * 10}, true, nil
	}
	out = newResilient(clean, sp, policy, 1).run(context.Background(), cfg)
	if !out.ok || out.remeasured != 0 || calls != 1 {
		t.Errorf("unsuspicious reading re-measured: calls=%d remeasured=%d", calls, out.remeasured)
	}
}

// A cancelled context degrades the run to an honest partial trace: the
// seed configs still measure (there is always a verdict), Partial is set,
// and Budget is lowered to what actually ran so a persisted trace resumes
// instead of masquerading as full coverage — and the resumed run replays
// the partial history without re-measuring, then completes.
func TestContextCancelYieldsResumablePartial(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the first batch
	opts := smallOpts(60, 3)
	tr, err := TuneFallible(ctx, sp, LiftMeasurer(measure), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Partial {
		t.Fatal("cancelled run not marked partial")
	}
	if tr.Measurements == 0 || tr.Measurements >= 60 {
		t.Fatalf("partial run measured %d configs, want the seed batch only", tr.Measurements)
	}
	if tr.Budget != tr.Measurements {
		t.Errorf("partial Budget = %d, want the honest %d", tr.Budget, tr.Measurements)
	}
	if !(tr.BestM.Seconds > 0) {
		t.Error("partial run carries no best-so-far verdict")
	}

	// Resume: replay the partial history at the full budget. The engine
	// must not re-measure anything it replayed and must finish the search.
	resumed := smallOpts(60, 3)
	resumed.warm = &warmStart{History: tr.History}
	fresh := 0
	resumed.OnEvent = countEvent(EventMeasure, &fresh)
	tr2, err := Tune(sp, measure, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Partial {
		t.Error("resumed run still partial under a live context")
	}
	if fresh != tr2.Measurements-tr.Measurements {
		t.Errorf("resume re-measured replayed configs: %d fresh for %d->%d",
			fresh, tr.Measurements, tr2.Measurements)
	}
	if tr2.BestM.Seconds > tr.BestM.Seconds {
		t.Errorf("resumed verdict %g worse than the partial one %g",
			tr2.BestM.Seconds, tr.BestM.Seconds)
	}
}

// Partial traces must be deterministic in the worker count too: the
// cancelled batch books a contiguous prefix in submission order.
func TestPartialTraceWorkerInvariant(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	run := func(workers int) *Trace {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := smallOpts(60, 5)
		opts.Workers = workers
		tr, err := TuneFallible(ctx, sp, LiftMeasurer(measure), opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("partial trace differs across worker counts:\n 1: %+v\n 4: %+v", a, b)
	}
}
