package memsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestExplainIdentifiesBottleneck(t *testing.T) {
	a := V100
	l := Launch{Blocks: 4096, ThreadsPerBlock: 256, SharedPerBlock: 4096}
	cases := []struct {
		name   string
		counts Counts
		want   Bottleneck
	}{
		{"global", Counts{GlobalLoads: 1 << 32, Flops: 1}, GlobalBound},
		{"compute", Counts{GlobalLoads: 1, Flops: 1 << 44}, ComputeBound},
		{"shared", Counts{SharedLoads: 1 << 44, Flops: 1}, SharedBound},
		{"launch", Counts{GlobalLoads: 1, Flops: 1}, LaunchBound},
	}
	for _, c := range cases {
		b := a.Explain(c.counts, l)
		if b.Bound != c.want {
			t.Errorf("%s: bound=%s want %s (%v)", c.name, b.Bound, c.want, b)
		}
		if b.Total <= 0 {
			t.Errorf("%s: nonpositive total", c.name)
		}
	}
}

// randomLaunch draws launches across the model's regimes: sub-warp blocks,
// BandwidthEff unset, negative and above 1, and — about one in eight — a
// block that does not fit an SM.
func randomLaunch(rng *rand.Rand, a Arch) Launch {
	l := Launch{
		Blocks:          1 + rng.Intn(1<<uint(rng.Intn(14))),
		ThreadsPerBlock: 1 + rng.Intn(1<<uint(rng.Intn(11))),
		SharedPerBlock:  rng.Intn(a.SharedPerSM),
		BandwidthEff:    []float64{0, -0.5, 0.3, 0.85, 1, 1.7}[rng.Intn(6)],
	}
	if rng.Intn(8) == 0 {
		l.SharedPerBlock = a.SharedPerSM + 1 + rng.Intn(a.SharedPerSM)
	}
	return l
}

func randomCounts(rng *rand.Rand) Counts {
	return Counts{GlobalLoads: rng.Int63n(1 << 30), GlobalStores: rng.Int63n(1 << 24),
		SharedLoads: rng.Int63n(1 << 34), SharedStores: rng.Int63n(1 << 28), Flops: rng.Int63n(1 << 40)}
}

// Explain reads the terms Time sums, so its total is Time bit for bit on
// every launch — including the ones that cannot run, where Time is +Inf and
// the breakdown says Invalid.
func TestExplainAgreesWithTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	runnable, invalid, subWarp := 0, 0, 0
	for i := 0; i < 4000; i++ {
		a := Catalog[rng.Intn(len(Catalog))]
		l, c := randomLaunch(rng, a), randomCounts(rng)
		b, want := a.Explain(c, l), a.Time(c, l)
		if b.Total != want {
			t.Fatalf("%s %+v %+v: Explain total %v != Time %v", a.Name, l, c, b.Total, want)
		}
		if math.IsInf(want, 1) {
			invalid++
			if b.Bound != Invalid {
				t.Fatalf("%s %+v: Time is +Inf but Explain says %s", a.Name, l, b.Bound)
			}
			continue
		}
		runnable++
		if l.ThreadsPerBlock < 32 {
			subWarp++
		}
		if b.Bound == Invalid || b.Occupancy <= 0 || b.Occupancy > 1 {
			t.Fatalf("%s %+v: runnable launch explained as %+v", a.Name, l, b)
		}
		if top := math.Max(b.Global, math.Max(b.Shared, b.Compute)); b.Total != b.Overhead+top {
			t.Fatalf("%s %+v: total %v is not overhead %v + top term %v", a.Name, l, b.Total, b.Overhead, top)
		}
	}
	if runnable < 1000 || invalid < 100 || subWarp < 100 {
		t.Fatalf("draw covered %d runnable (%d sub-warp) and %d invalid launches", runnable, subWarp, invalid)
	}
}

// Seconds is monotone: more traffic or more flops never make a kernel
// faster, better latency hiding or bandwidth efficiency never make it
// slower. The tuner's floors are admissible because of exactly this (they
// hand Seconds lower bounds on the operands, at the measurement's rates or
// at ideal ones), so it is a property of the function, not of its callers.
func TestSecondsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		a := Catalog[rng.Intn(len(Catalog))]
		r, ok := a.Rates(randomLaunch(rng, a))
		if !ok {
			continue
		}
		if r.Hide <= 0 || r.Hide > 1 || r.Eff <= 0 || r.Eff > 1 || r.Sched <= 0 {
			t.Fatalf("%s: rates out of range: %+v", a.Name, r)
		}
		c := randomCounts(rng)
		// Zero operands are drawn too: the floors pass 0 shared bytes.
		op := [3]float64{float64(c.GlobalIO()) * 4, float64(c.SharedIO()) * 4 * float64(rng.Intn(2)), float64(c.Flops)}
		base := a.Seconds(r, op[0], op[1], op[2])
		for k := range op {
			up := op
			up[k] = op[k]*(1+rng.Float64()) + float64(rng.Intn(2))
			if got := a.Seconds(r, up[0], up[1], up[2]); got < base {
				t.Fatalf("%s %+v: operand %d %v → %v lowered Seconds %v → %v", a.Name, r, k, op[k], up[k], base, got)
			}
		}
		better := r
		better.Hide += (1 - r.Hide) * rng.Float64()
		if got := a.Seconds(better, op[0], op[1], op[2]); got > base {
			t.Fatalf("%s: Hide %v → %v raised Seconds %v → %v", a.Name, r.Hide, better.Hide, base, got)
		}
		better = r
		better.Eff += (1 - r.Eff) * rng.Float64()
		if got := a.Seconds(better, op[0], op[1], op[2]); got > base {
			t.Fatalf("%s: Eff %v → %v raised Seconds %v → %v", a.Name, r.Eff, better.Eff, base, got)
		}
		if ideal := a.Seconds(Rates{Sched: r.Sched, Hide: 1, Eff: 1}, op[0], op[1], op[2]); ideal > base {
			t.Fatalf("%s %+v: ideal rates %v above the launch's own %v", a.Name, r, ideal, base)
		}
	}
}

// RatesBound is no worse than Rates at every thread count up to its own:
// the tuner skips a whole tile of configurations on it, so a Hide or Sched
// it got wrong for one thread count would hide that configuration.
func TestRatesBoundCoversEveryThreadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	covered := 0
	for i := 0; i < 400; i++ {
		a := Catalog[rng.Intn(len(Catalog))]
		l := randomLaunch(rng, a)
		bound, bok := a.RatesBound(l)
		for th := 1; th <= l.ThreadsPerBlock; th++ {
			lt := l
			lt.ThreadsPerBlock = th
			r, ok := a.Rates(lt)
			if !ok {
				continue
			}
			covered++
			if !bok || r.Sched < bound.Sched || r.Hide > bound.Hide || r.Eff != bound.Eff {
				t.Fatalf("%s %+v: %d threads run at %+v, bound %+v (ok %v)", a.Name, l, th, r, bound, bok)
			}
		}
	}
	if covered < 10000 {
		t.Fatalf("only %d runnable thread counts drawn", covered)
	}
}

func TestExplainInvalidLaunch(t *testing.T) {
	a := V100
	b := a.Explain(Counts{Flops: 1}, Launch{})
	if b.Bound != Invalid || !math.IsInf(b.Total, 1) {
		t.Errorf("invalid launch not flagged: %v", b)
	}
	huge := Launch{Blocks: 4, ThreadsPerBlock: 64, SharedPerBlock: a.SharedPerSM * 2}
	if got := a.Explain(Counts{Flops: 1}, huge); got.Bound != Invalid {
		t.Errorf("unschedulable launch not flagged: %v", got)
	}
}

func TestBreakdownString(t *testing.T) {
	a := V100
	b := a.Explain(Counts{GlobalLoads: 1 << 24, Flops: 1 << 30},
		Launch{Blocks: 2048, ThreadsPerBlock: 256, SharedPerBlock: 2048})
	s := b.String()
	if !strings.Contains(s, "bound") || !strings.Contains(s, "occupancy") {
		t.Errorf("uninformative string: %q", s)
	}
}
