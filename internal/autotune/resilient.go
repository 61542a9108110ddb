package autotune

import (
	"context"
	"sort"
	"time"

	"repro/internal/conv"
)

// This file is the fault-tolerance layer of the measurement pipeline. On
// real hardware, measurement — the paper's scarce resource — is also the
// unreliable one: on-device runs fail transiently, time out, and return
// noisy readings, which is where production auto-tuners lose hours. The
// engine therefore distinguishes two failure modes at the measurement seam:
//
//   - "config invalid" (Measurer's ok=false): deterministic, never
//     retried — the configuration cannot build or exceeds resources.
//   - transient error (FallibleMeasurer's non-nil error): the measurement
//     itself failed and may succeed if retried.
//
// The resilient wrapper below turns a FallibleMeasurer into the reliable
// per-config evaluation the tuner loop consumes: capped exponential backoff
// with deterministic seeded jitter between retries, quarantine after a
// configurable number of consecutive failures (booked as a failed config,
// counted in Trace.Quarantined), and a noisy-reading defense that
// re-measures suspicious readings and takes the median of k. All of it is
// inert under the zero RetryPolicy with an error-free measurer, keeping the
// default path bit-identical to the fault-oblivious engine.

// FallibleMeasurer is the error-aware measurement seam. A non-nil error is
// a transient measurement failure (device fault, timeout, lost connection)
// distinct from "config invalid": the former may be retried, the latter is
// deterministic and final. Implementations must be safe for concurrent use
// when the engine runs with Workers > 1.
type FallibleMeasurer func(conv.Config) (Measurement, bool, error)

// LiftMeasurer adapts an infallible Measurer to the fallible seam; the
// lifted measurer never errors, so retry machinery never engages. Callers
// outside the package use it to compose their own measurement stacks (e.g.
// a circuit breaker with no fault injector underneath).
func LiftMeasurer(m Measurer) FallibleMeasurer {
	return func(c conv.Config) (Measurement, bool, error) {
		meas, ok := m(c)
		return meas, ok, nil
	}
}

// RetryPolicy configures the fault-tolerant measurement pipeline. The zero
// value measures each configuration exactly once with no noise defense —
// combined with an error-free measurer, that is bit-identical to the
// pre-fault-tolerance engine.
type RetryPolicy struct {
	// MaxAttempts is the total measurement attempts per configuration
	// (minimum 1). A configuration failing MaxAttempts consecutive
	// transient errors is quarantined: booked as a failed measurement,
	// never re-tried within the run, and counted in Trace.Quarantined.
	MaxAttempts int
	// BackoffBase is the wait before the first retry; each further retry
	// doubles it (capped at BackoffMax when that is set). The actual wait
	// is jittered by a deterministic factor in [0.5, 1.5) seeded by
	// (engine seed, configuration, attempt), so retry schedules are
	// reproducible for a fixed seed at any worker count. 0 retries
	// immediately.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (0 = uncapped).
	BackoffMax time.Duration
	// NoiseThreshold enables the noisy-reading defense (0 = off): a
	// successful reading more than this relative fraction *below* the
	// configuration's I/O-lower-bound floor is physically impossible —
	// the bound is admissible — so it must be noise, and a reading within
	// the threshold of the floor is a would-be near-optimal verdict worth
	// confirming. Either suspicion triggers re-measurement: the reading is
	// re-taken until MedianK readings are in hand and the median (by
	// seconds) is booked. Falsely-fast readings are the dangerous ones (a
	// too-slow reading can only forgo an improvement, a too-fast one
	// corrupts the verdict), which is why the floor anchors the defense.
	NoiseThreshold float64
	// MedianK is how many readings the defense gathers before taking the
	// median (default 3, rounded up to odd so the median is an actual
	// reading).
	MedianK int
}

func (p RetryPolicy) normalized() RetryPolicy {
	p.MaxAttempts, p.MedianK = max(p.MaxAttempts, 1), max(p.MedianK, 3)
	if p.MedianK%2 == 0 {
		p.MedianK++
	}
	return p
}

// outcome is one resilient per-config evaluation, with the fault-pipeline
// bookkeeping the trace aggregates.
type outcome struct {
	m  Measurement
	ok bool
	// retries counts the transient-failure re-attempts performed.
	retries int
	// remeasured counts the extra readings the noisy-reading defense took.
	remeasured int
	// quarantined marks a config abandoned after MaxAttempts consecutive
	// transient failures (booked as a failed measurement).
	quarantined bool
}

// resilient evaluates configurations through the fault-tolerance pipeline:
// retry with backoff, quarantine, noisy-reading defense. One instance
// serves one tuning run; run is safe for concurrent use by the executor's
// workers (it shares only the measurer, the space's read-mostly bound memo
// and immutable policy).
type resilient struct {
	measure FallibleMeasurer
	sp      *Space
	policy  RetryPolicy
	seed    int64
}

func newResilient(measure FallibleMeasurer, sp *Space, policy RetryPolicy, seed int64) *resilient {
	return &resilient{measure: measure, sp: sp, policy: policy.normalized(), seed: seed}
}

// run evaluates one configuration to a final outcome. ctx bounds the
// backoff waits only — an in-flight measurement is never interrupted — so
// a cancelled run finishes its current attempt and gives up on retries.
func (r *resilient) run(ctx context.Context, c conv.Config) outcome {
	var out outcome
	fails := 0
	// read performs one reading with the retry loop around transient
	// errors; gaveUp reports quarantine (or cancellation mid-backoff).
	read := func() (Measurement, bool, bool) {
		for {
			m, ok, err := r.measure(c)
			if err == nil {
				fails = 0
				return m, ok, false
			}
			fails++
			if fails >= r.policy.MaxAttempts {
				return Measurement{}, false, true
			}
			out.retries++
			if !sleepCtx(ctx, r.backoff(c, fails)) {
				return Measurement{}, false, true
			}
		}
	}

	m, ok, gaveUp := read()
	if gaveUp {
		out.quarantined = true
		return out
	}
	if !ok {
		return out // config invalid: deterministic, no defense applies
	}
	if thr := r.policy.NoiseThreshold; thr > 0 {
		if floor := r.sp.BoundSeconds(c); floor > 0 && m.Seconds < floor*(1+thr) {
			// Suspicious: below the admissible floor (impossible — noise
			// for sure) or close enough to it to decide a verdict. Gather
			// MedianK readings and book the median.
			readings := []Measurement{m}
			for len(readings) < r.policy.MedianK {
				mi, oki, gaveUp := read()
				if gaveUp {
					out.quarantined = true
					return out
				}
				out.remeasured++
				if !oki {
					// Validity is deterministic; a measurer that flips it
					// mid-run is reporting the config unusable — book that.
					return out
				}
				readings = append(readings, mi)
			}
			sort.Slice(readings, func(i, j int) bool { return readings[i].Seconds < readings[j].Seconds })
			m = readings[len(readings)/2]
		}
	}
	out.m, out.ok = m, true
	return out
}

// backoff is the wait before retry number `attempt` (1-based): capped
// exponential with deterministic jitter in [0.5, 1.5) derived from
// (seed, config, attempt) — reproducible at any worker count, uncorrelated
// across configs so a batch of retries does not thundering-herd.
func (r *resilient) backoff(c conv.Config, attempt int) time.Duration {
	base := r.policy.BackoffBase
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if r.policy.BackoffMax > 0 && d >= r.policy.BackoffMax {
			d = r.policy.BackoffMax
			break
		}
	}
	if r.policy.BackoffMax > 0 && d > r.policy.BackoffMax {
		d = r.policy.BackoffMax
	}
	h := configHash(uint64(r.seed), c, uint64(attempt))
	jitter := 0.5 + float64(h>>11)/(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// configHash mixes a seed, a configuration and a salt with FNV-1a — the
// deterministic randomness source of backoff jitter (and of the chaos
// injector's fault schedule, which must stay stable across worker
// interleavings).
func configHash(seed uint64, c conv.Config, salt uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(seed)
	for _, v := range [...]int{c.TileX, c.TileY, c.TileZ,
		c.ThreadsX, c.ThreadsY, c.ThreadsZ,
		c.SharedPerBlock, int(c.Layout), c.WinogradE} {
		mix(uint64(v))
	}
	mix(salt)
	return h
}

// ConfigHash exposes the deterministic config/seed/salt hash for packages
// building reproducible schedules on top of the measurement seam (the
// chaos fault injector); it is not part of the engine's verdict path.
func ConfigHash(seed uint64, c conv.Config, salt uint64) uint64 {
	return configHash(seed, c, salt)
}
