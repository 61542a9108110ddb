package autotune_test

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/autotune"
	"repro/internal/conv"
)

// BenchmarkZooSweepCold is a cold daemon's first pass over the benchmark's
// zoo without the HTTP: six TuneNetwork sweeps in order against one fresh
// cache, with cmd/tuned's defaults (engine defaults at seed 0, Winograd and
// warm-starting on, MobileNetV1 asking for the FFT and implicit-GEMM kinds).
// Measurements are memoised dry runs, so the cost model, the walkers and the
// bound are what is timed — the stage shares in ARCHITECTURE.md's
// "Cost-model fast path" come from a CPU profile of this benchmark.
//
// Beside the time it reports the pass's three deterministic quality guards —
// measurements, network_ms and bound_gap, the arithmetic of bench/oracle.go's
// cold-zoo numbers — so a verdict-moving engine change is visible here
// before bench/ runs, and refits/search, the cost-model fits the average
// search of the pass paid for.
func BenchmarkZooSweepCold(b *testing.B) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	var measurements atomic.Int64
	tune.OnEvent = func(e autotune.Event) {
		if e == autotune.EventMeasure {
			measurements.Add(1)
		}
	}
	var sweeps [][]autotune.LayerVerdict
	var searches []autotune.SearchTrace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		measurements.Store(0)
		sweeps, searches = coldZooPass(b, tune)
	}
	b.StopTimer()
	refits := 0
	for _, s := range searches {
		refits += s.Refits
	}
	networkMS, boundGap := zooQuality(b, sweeps)
	b.ReportMetric(float64(measurements.Load()), "measurements")
	b.ReportMetric(networkMS, "network_ms")
	b.ReportMetric(boundGap, "bound_gap")
	b.ReportMetric(float64(refits)/float64(len(searches)), "refits/search")
	// ReportMetric rounds to four digits; the guards are exact.
	b.Logf("measurements %d network_ms %v bound_gap %v refits %d searches %d",
		measurements.Load(), networkMS, boundGap, refits, len(searches))
}

// coldZooPass is one cold pass: the six zoo sweeps in order against one fresh
// cache, with cmd/tuned's network options. It returns each sweep's verdicts
// and every search the pass ran.
func coldZooPass(tb testing.TB, tune autotune.Options) ([][]autotune.LayerVerdict, []autotune.SearchTrace) {
	cache := autotune.NewCache()
	var sweeps [][]autotune.LayerVerdict
	var searches []autotune.SearchTrace
	for _, fx := range zooFixtures() {
		opts := autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true}
		if fx.name == "mobilenetv1" {
			opts.Kinds = []autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}
		}
		verdicts, ran, err := autotune.TuneNetworkTraces(laneArch, fx.layers, cache, opts)
		if err != nil {
			tb.Fatal(err)
		}
		sweeps = append(sweeps, verdicts)
		searches = append(searches, ran...)
	}
	return sweeps, searches
}

// zooQuality is what a pass's verdicts are worth: the summed NetworkSeconds
// of the sweeps in simulated ms, and the geomean over the distinct
// (kind, shape, config) verdicts of measured seconds over the best floor the
// analytic model finds anywhere in that kind's space — how far the verdicts
// sit from the I/O bound.
func zooQuality(b *testing.B, sweeps [][]autotune.LayerVerdict) (networkMS, boundGap float64) {
	type verdictKey struct {
		autotune.Search
		cfg conv.Config
	}
	spaces := make(map[autotune.Search]*autotune.Space)
	seen := make(map[verdictKey]bool)
	var logSum float64
	for _, verdicts := range sweeps {
		networkMS += autotune.NetworkSeconds(verdicts) * 1e3
		for _, v := range verdicts {
			search := autotune.Search{Kind: v.Kind, Shape: v.Layer.Shape}
			k := verdictKey{search, v.Config}
			if seen[k] {
				continue
			}
			seen[k] = true
			sp := spaces[search]
			if sp == nil {
				var err error
				if sp, err = autotune.NewSpace(search.Shape, laneArch, search.Kind, 0, true); err != nil {
					b.Fatal(err)
				}
				spaces[search] = sp
			}
			best, err := sp.Analytic(1)
			if err != nil {
				b.Fatal(err)
			}
			logSum += math.Log(v.M.Seconds / best.Floor)
		}
	}
	return networkMS, math.Exp(logSum / float64(len(seen)))
}
