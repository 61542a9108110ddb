// Package chaos is a deterministic fault-injection harness for the tuning
// engine's measurement seam. It wraps any autotune.Measurer into a
// FallibleMeasurer that injects transient failures, latency spikes and
// multiplicative reading noise on a schedule that is a pure function of
// (seed, search salt, configuration, attempt number) — never of wall
// clock, goroutine interleaving or call order across configurations. Two
// runs with the same seed see the same faults at any worker count, which
// is what lets property tests assert that the engine's verdict under a 10%
// fault rate matches (failures/latency) or bounds (noise) the fault-free
// verdict, and lets CI re-run the entire daemon e2e suite under injection.
package chaos

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/shapes"
)

// ErrInjected is the transient failure the injector returns; the engine's
// retry pipeline treats it like any other measurement error.
var ErrInjected = errors.New("chaos: injected transient measurement failure")

// Config selects what the injector does. The zero value injects nothing
// (every wrapped measurer behaves exactly like the lifted original).
type Config struct {
	// Seed drives the whole fault schedule; same seed, same faults.
	Seed int64
	// FailRate is the per-attempt probability of an injected transient
	// failure, in [0, 1]. Exactly 1 (with MaxConsecutive 0) is a dead
	// backend: every measurement fails, which is the scenario the service's
	// graceful-degradation path (circuit breaker + analytic tier) exists
	// for — and what its chaos e2e runs.
	FailRate float64
	// MaxConsecutive caps the injected failures in a row for one
	// configuration (0 = uncapped). Keeping it below the engine's
	// RetryPolicy.MaxAttempts guarantees every configuration eventually
	// yields its true reading, so a failures-only schedule leaves the
	// verdict bit-identical to the fault-free run — the invariant the
	// chaos e2e mode relies on.
	MaxConsecutive int
	// SpikeRate is the per-attempt probability of a latency spike of
	// SpikeLatency (emulating a hung device run that eventually returns).
	SpikeRate    float64
	SpikeLatency time.Duration
	// NoiseAmp, when > 0, multiplies successful readings by a
	// deterministic factor in [1-NoiseAmp, 1+NoiseAmp). Unlike failures
	// and spikes, noise can change the verdict; the engine's
	// median-of-k defense bounds how far.
	NoiseAmp float64
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.FailRate > 0 || (c.SpikeRate > 0 && c.SpikeLatency > 0) || c.NoiseAmp > 0
}

// Injector manufactures fault-injecting wrappers that share one Config and
// one set of observability counters.
type Injector struct {
	cfg Config

	failures  atomic.Int64
	spikes    atomic.Int64
	noised    atomic.Int64
	suspended atomic.Bool
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.FailRate < 0 {
		cfg.FailRate = 0
	}
	if cfg.FailRate > 1 {
		cfg.FailRate = 1
	}
	return &Injector{cfg: cfg}
}

// SetSuspended pauses (true) or resumes (false) all injection at runtime:
// a suspended injector passes measurements straight through, faithfully —
// how a chaos e2e stops the outage to watch the service recover. The
// switch is instant for every wrapped measurer.
func (in *Injector) SetSuspended(v bool) { in.suspended.Store(v) }

// Stats are the faults injected so far, across all wrapped measurers.
type Stats struct {
	Failures int64 // transient failures injected
	Spikes   int64 // latency spikes injected
	Noised   int64 // readings perturbed by multiplicative noise
}

func (in *Injector) Stats() Stats {
	return Stats{
		Failures: in.failures.Load(),
		Spikes:   in.spikes.Load(),
		Noised:   in.noised.Load(),
	}
}

// SearchSalt derives the per-search salt of a (kind, shape) key, so a
// network sweep's searches get distinct but reproducible schedules.
func SearchSalt(kind autotune.Kind, s shapes.ConvShape) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int) {
		x := uint64(int64(v))
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for _, b := range []byte(kind.String()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, v := range [...]int{s.Batch, s.Cin, s.Hin, s.Win, s.Cout, s.Hker, s.Wker, s.Strid, s.Pad} {
		mix(v)
	}
	return h
}

// decision streams: the per-attempt hash is salted with the decision kind
// so failure, spike and noise draws are independent of each other.
const (
	saltFail  = 0
	saltSpike = 1
	saltNoise = 2
	saltKinds = 3
)

// Wrap returns a fault-injecting FallibleMeasurer around measure. salt
// distinguishes searches sharing one injector (use SearchSalt); the
// returned measurer is safe for concurrent use and its schedule depends
// only on (Config.Seed, salt, configuration, per-config attempt number) —
// the i-th attempt at a given configuration sees the same fate no matter
// how goroutines interleave.
func (in *Injector) Wrap(salt uint64, measure autotune.Measurer) autotune.FallibleMeasurer {
	var mu sync.Mutex
	attempts := make(map[conv.Config]int) // total attempts per config
	streak := make(map[conv.Config]int)   // consecutive injected failures

	seed := uint64(in.cfg.Seed) ^ salt
	// unit draws a deterministic uniform in [0, 1) for one decision.
	unit := func(c conv.Config, attempt, kind int) float64 {
		h := autotune.ConfigHash(seed, c, uint64(attempt*saltKinds+kind))
		return float64(h>>11) / (1 << 53)
	}

	return func(c conv.Config) (autotune.Measurement, bool, error) {
		if in.suspended.Load() {
			m, ok := measure(c)
			return m, ok, nil
		}
		mu.Lock()
		attempt := attempts[c]
		attempts[c] = attempt + 1
		fail := in.cfg.FailRate > 0 &&
			unit(c, attempt, saltFail) < in.cfg.FailRate &&
			(in.cfg.MaxConsecutive <= 0 || streak[c] < in.cfg.MaxConsecutive)
		if fail {
			streak[c]++
		} else {
			streak[c] = 0
		}
		mu.Unlock()

		if in.cfg.SpikeRate > 0 && in.cfg.SpikeLatency > 0 &&
			unit(c, attempt, saltSpike) < in.cfg.SpikeRate {
			in.spikes.Add(1)
			time.Sleep(in.cfg.SpikeLatency)
		}
		if fail {
			in.failures.Add(1)
			return autotune.Measurement{}, false, ErrInjected
		}
		m, ok := measure(c)
		if ok && in.cfg.NoiseAmp > 0 {
			factor := 1 + in.cfg.NoiseAmp*(2*unit(c, attempt, saltNoise)-1)
			if factor > 0 {
				m.Seconds *= factor
				in.noised.Add(1)
			}
		}
		return m, ok, nil
	}
}

// WrapNetwork adapts the injector to autotune.NetworkOptions.WrapMeasurer:
// each deduplicated search gets its own salt from its (kind, shape) key.
func (in *Injector) WrapNetwork() func(autotune.Kind, shapes.ConvShape, autotune.Measurer) autotune.FallibleMeasurer {
	return func(kind autotune.Kind, s shapes.ConvShape, measure autotune.Measurer) autotune.FallibleMeasurer {
		return in.Wrap(SearchSalt(kind, s), measure)
	}
}
