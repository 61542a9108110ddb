package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// median returns the middle of v (mean of the two middles for an even
// count) without reordering it; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is the arithmetic mean; 0 for an empty slice.
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// percentile is the nearest-rank p-th percentile (p in (0, 100]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because the
// acceptance rule for this benchmark is stated in those terms. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// geomean is the geometric mean of positive values; 0 for an empty slice.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// microTimer times one call: every ns/us/ms layer metric is the median of
// timerSamples samples, each of as many iterations as fill sampleTime, after
// a warm-up call (SNIPPETS §1 do_bench(warmup, rep); §3
// median(timeit.repeat(...)) with the count calibrated to a minimum sample
// time).
type microTimer struct {
	sampleTime time.Duration
}

const timerSamples = 7

// fullTimer is the timer of a real run; the smoke test uses a shorter one.
var fullTimer = microTimer{sampleTime: 100 * time.Millisecond}

// timing is one micro-timer result: the median over the samples, in
// nanoseconds per call of the timed function.
type timing struct {
	ns float64
}

func (t timing) us() float64 { return t.ns / 1e3 }
func (t timing) ms() float64 { return t.ns / 1e6 }

// op times fn: warm-up, calibration of the per-sample iteration count,
// then timerSamples samples.
func (mt microTimer) op(fn func()) timing {
	return mt.runs(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(start)
	})
}

// try is op for a call that can fail; it returns the first error.
func (mt microTimer) try(fn func() error) (timing, error) {
	var first error
	t := mt.op(func() {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	})
	return t, first
}

// with is op for a call that needs fresh state: setup runs before
// every call of fn and is not timed.
func (mt microTimer) with(setup, fn func()) timing {
	return mt.runs(func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			setup()
			start := time.Now()
			fn()
			d += time.Since(start)
		}
		return d
	})
}

// runs is the micro-timer proper; run(n) returns the timed duration of
// n calls.
func (mt microTimer) runs(run func(n int) time.Duration) timing {
	run(1)
	n := 1
	for {
		d := run(n)
		if d >= mt.sampleTime {
			break
		}
		if d < time.Microsecond {
			d = time.Microsecond
		}
		grow := int(float64(n) * 1.2 * float64(mt.sampleTime) / float64(d))
		if grow <= n {
			grow = n + 1
		}
		n = grow
	}
	per := make([]float64, timerSamples)
	for i := range per {
		per[i] = float64(run(n)) / float64(n)
	}
	return timing{ns: median(per)}
}

// allocsPerOp is the average heap allocations of one call of fn.
func allocsPerOp(fn func()) float64 { return testing.AllocsPerRun(20, fn) }
