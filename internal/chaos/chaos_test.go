package chaos

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

var arch = memsim.V100

func layer() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
}

func mustSpace(t *testing.T) *autotune.Space {
	t.Helper()
	sp, err := autotune.NewSpace(layer(), arch, autotune.Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func tinyOpts() autotune.Options {
	o := autotune.DefaultOptions()
	o.Budget = 60
	o.Walkers = 4
	o.WalkSteps = 8
	o.Patience = 0
	return o
}

// faultSchedule records, per call in order, whether the wrapped measurer
// returned an injected error.
func faultSchedule(t *testing.T, cfg Config, salt uint64, calls int) []bool {
	t.Helper()
	sp := mustSpace(t)
	measure := autotune.KindMeasurer(arch, layer(), autotune.Direct)
	wrapped := New(cfg).Wrap(salt, measure)
	// A fixed, reproducible config sequence: walk the space's seeds
	// round-robin so repeated attempts at the same config occur.
	seeds := sp.SeedConfigs()
	if len(seeds) == 0 {
		t.Fatal("no seed configs")
	}
	out := make([]bool, calls)
	for i := 0; i < calls; i++ {
		_, _, err := wrapped(seeds[i%len(seeds)])
		out[i] = err != nil
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 7, FailRate: 0.3}
	a := faultSchedule(t, cfg, 11, 200)
	b := faultSchedule(t, cfg, 11, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
	}
	injected := 0
	for _, f := range a {
		if f {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("30% fail rate injected nothing in 200 calls")
	}
	c := faultSchedule(t, Config{Seed: 8, FailRate: 0.3}, 11, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestMaxConsecutiveCapsStreaks(t *testing.T) {
	sched := faultSchedule(t, Config{Seed: 3, FailRate: 0.95, MaxConsecutive: 2}, 0, 300)
	streak := 0
	for i, f := range sched {
		if !f {
			streak = 0
			continue
		}
		streak++
		if streak > 2 {
			t.Fatalf("call %d: %d consecutive injected failures exceeds cap 2", i, streak)
		}
	}
}

// Failures and latency spikes must not change the verdict: with retries
// outlasting the consecutive-failure cap, every configuration eventually
// yields its true reading, so the trace is bit-identical to fault-free.
func TestFaultsPreserveVerdict(t *testing.T) {
	opts := tinyOpts()
	clean, err := autotune.Tune(mustSpace(t), autotune.KindMeasurer(arch, layer(), autotune.Direct), opts)
	if err != nil {
		t.Fatal(err)
	}

	in := New(Config{Seed: 1, FailRate: 0.10, MaxConsecutive: 2,
		SpikeRate: 0.05, SpikeLatency: time.Microsecond})
	wrapped := in.Wrap(0, autotune.KindMeasurer(arch, layer(), autotune.Direct))
	faultOpts := opts
	faultOpts.Retry = autotune.RetryPolicy{MaxAttempts: 4}
	faulty, err := autotune.TuneFallible(context.Background(), mustSpace(t), wrapped, faultOpts)
	if err != nil {
		t.Fatal(err)
	}

	if faulty.Best != clean.Best || faulty.BestM != clean.BestM {
		t.Fatalf("verdict changed under failure injection: %v/%v vs %v/%v",
			faulty.Best, faulty.BestM, clean.Best, clean.BestM)
	}
	if faulty.Measurements != clean.Measurements {
		t.Fatalf("measurement count changed: %d vs %d", faulty.Measurements, clean.Measurements)
	}
	for i := range clean.History {
		if faulty.History[i] != clean.History[i] {
			t.Fatalf("history diverged at %d", i)
		}
	}
	if faulty.Retries == 0 {
		t.Fatal("10% fault rate caused zero retries")
	}
	if faulty.Quarantined != 0 {
		t.Fatalf("cap below MaxAttempts must prevent quarantine, got %d", faulty.Quarantined)
	}
	stats := in.Stats()
	if stats.Failures == 0 {
		t.Fatal("injector reports zero injected failures")
	}
	if int64(faulty.Retries) != stats.Failures {
		t.Fatalf("engine retries %d != injected failures %d", faulty.Retries, stats.Failures)
	}
}

// The fault schedule — and therefore the whole run — must not depend on the
// executor's worker count.
func TestFaultedRunWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *autotune.Trace {
		opts := tinyOpts()
		opts.Workers = workers
		opts.Retry = autotune.RetryPolicy{MaxAttempts: 4}
		wrapped := New(Config{Seed: 5, FailRate: 0.10, MaxConsecutive: 2}).
			Wrap(0, autotune.KindMeasurer(arch, layer(), autotune.Direct))
		tr, err := autotune.TuneFallible(context.Background(), mustSpace(t), wrapped, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	one, four := run(1), run(4)
	if one.Best != four.Best || one.BestM != four.BestM || one.Measurements != four.Measurements ||
		one.Retries != four.Retries {
		t.Fatalf("worker count changed faulted run: %+v vs %+v", one, four)
	}
}

// Multiplicative noise can move the search, but the median-of-k defense
// must keep the returned configuration's true quality within tolerance of
// the fault-free verdict. The comparison is on noise-free re-measurements
// of both winners: noise perturbs which configs the search visits, so the
// raw reported seconds are not directly comparable.
func TestNoiseBoundedByDefense(t *testing.T) {
	opts := tinyOpts()
	opts.Budget = 240
	measure := autotune.KindMeasurer(arch, layer(), autotune.Direct)
	clean, err := autotune.Tune(mustSpace(t), measure, opts)
	if err != nil {
		t.Fatal(err)
	}

	noisy := opts
	noisy.Retry = autotune.RetryPolicy{MaxAttempts: 4, NoiseThreshold: 0.25, MedianK: 3}
	wrapped := New(Config{Seed: 2, NoiseAmp: 0.05}).Wrap(0, measure)
	tr, err := autotune.TuneFallible(context.Background(), mustSpace(t), wrapped, noisy)
	if err != nil {
		t.Fatal(err)
	}
	trueM, ok := measure(tr.Best)
	if !ok {
		t.Fatalf("noisy run returned an invalid config %v", tr.Best)
	}
	rel := math.Abs(trueM.Seconds-clean.BestM.Seconds) / clean.BestM.Seconds
	if rel > 0.10 {
		t.Fatalf("noisy run's winner truly costs %.3g, %.1f%% from clean %.3g",
			trueM.Seconds, 100*rel, clean.BestM.Seconds)
	}
}

// The acceptance property: a network sweep under a seeded 10% transient
// fault rate completes and its verdicts match the fault-free sweep.
func TestNetworkVerdictsUnderFaults(t *testing.T) {
	layers := []autotune.NetworkLayer{
		{Name: "conv1", Shape: layer(), Repeat: 2},
		{Name: "conv2", Shape: shapes.ConvShape{Batch: 1, Cin: 64, Hin: 27, Win: 27, Cout: 64, Hker: 1, Wker: 1, Strid: 1, Pad: 0}},
	}
	nopts := autotune.NetworkOptions{Tune: tinyOpts(), Workers: 2}
	clean, err := autotune.TuneNetwork(arch, layers, nil, nopts)
	if err != nil {
		t.Fatal(err)
	}

	in := New(Config{Seed: 1, FailRate: 0.10, MaxConsecutive: 2})
	fopts := nopts
	fopts.Tune.Retry = autotune.RetryPolicy{MaxAttempts: 4}
	fopts.WrapMeasurer = in.WrapNetwork()
	faulty, err := autotune.TuneNetworkContext(context.Background(), arch, layers, nil, fopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if faulty[i].Config != clean[i].Config || faulty[i].M != clean[i].M || faulty[i].Kind != clean[i].Kind {
			t.Fatalf("layer %d verdict diverged under faults: %+v vs %+v", i, faulty[i], clean[i])
		}
		if faulty[i].Partial {
			t.Fatalf("layer %d spuriously partial", i)
		}
	}
	if in.Stats().Failures == 0 {
		t.Fatal("sweep saw no injected failures")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config claims enabled")
	}
	sched := faultSchedule(t, Config{Seed: 1}, 0, 100)
	for i, f := range sched {
		if f {
			t.Fatalf("call %d: zero config injected a failure", i)
		}
	}
}
