package autotune_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/autotune"
	"repro/internal/conv"
)

// measurementPrice is what one measurement costs a tuner on real hardware:
// triton.testing.do_bench(warmup=10, rep=50) times a candidate in about 60 ms.
// The simulator measures for free, so the engine benchmarks also report
// priced_s — their own seconds plus this price per measurement — the cost a
// trade of measurements against engine CPU is judged by.
const measurementPrice = 0.060

// BenchmarkZooSweepCold is a cold daemon's first pass over the benchmark's
// zoo without the HTTP: six TuneNetwork sweeps in order against one fresh
// cache, with cmd/tuned's defaults (engine defaults at seed 0, Winograd and
// warm-starting on, MobileNetV1 asking for the FFT and implicit-GEMM kinds).
// Measurements are memoised dry runs, so the cost model, the walkers and the
// bound are what is timed — the stage shares in ARCHITECTURE.md's
// "Cost-model fast path" come from a CPU profile of this benchmark.
//
// It runs one sub-benchmark per engine seed, seed=0 to seed=3: an engine
// change that moves verdicts is judged on all four. Beside the time each
// reports the pass's three deterministic quality guards — measurements,
// network_ms and bound_gap, the arithmetic of bench/oracle.go's cold-zoo
// numbers — so a verdict-moving engine change is visible here before bench/
// runs; beside them refits/search, the cost-model fits the average search
// of the pass paid for, and priced_s, the pass's seconds with its
// measurements priced (measurementPrice).
func BenchmarkZooSweepCold(b *testing.B) {
	for seed := int64(0); seed < 4; seed++ {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) { benchZooSweepCold(b, seed) })
	}
}

func benchZooSweepCold(b *testing.B, seed int64) {
	tune := autotune.DefaultOptions()
	tune.Seed = seed
	measurements := countMeasurements(&tune)
	var sweeps [][]autotune.LayerVerdict
	var searches []autotune.SearchTrace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		measurements.Store(0)
		sweeps, searches = coldZooPass(b, tune, autotune.NewCache())
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
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)+float64(measurements.Load())*measurementPrice, "priced_s")
	// ReportMetric rounds to four digits; the guards are exact.
	b.Logf("measurements %d network_ms %v bound_gap %v refits %d searches %d",
		measurements.Load(), networkMS, boundGap, refits, len(searches))
}

// BenchmarkNovelSweepsWarm is a daemon that holds the zoo serving fresh
// requests: 48 novel networks of 2–3 layers, tuned in order at budget 48 with
// cmd/tuned's warm defaults against a cache the cold zoo pass filled outside
// the timer. It reports ms/network, the measurements each network spent (the
// warm path's guard), the family priors each network fitted — the prior
// memo's misses plus the fits below the row cap, which bypass it — and the
// geomean of the novel verdicts' simulated seconds, which a change of the
// transfer pool's sources may move, and priced_s/network, its seconds with
// its measurements priced (measurementPrice).
func BenchmarkNovelSweepsWarm(b *testing.B) {
	const count = 48
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	fresh := tune
	fresh.Budget = 48
	measurements := countMeasurements(&fresh)
	opts := autotune.NetworkOptions{Tune: fresh, Winograd: true, Warm: true}
	nets := novelNetworks(count)
	var fits int
	var logSum float64
	layers := 0
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cache := autotune.NewCache()
		coldZooPass(b, tune, cache)
		_, zooMisses, zooBelow := autotune.PriorMemoCounts(cache)
		logSum, layers = 0, 0
		b.StartTimer()
		for _, net := range nets {
			verdicts, err := autotune.TuneNetwork(laneArch, net, cache, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range verdicts {
				logSum += math.Log(v.M.Seconds)
				layers++
			}
		}
		b.StopTimer()
		_, misses, below := autotune.PriorMemoCounts(cache)
		fits += misses - zooMisses + below - zooBelow
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*count), "ms/network")
	b.ReportMetric(float64(measurements.Load())/float64(b.N*count), "measurements/network")
	b.ReportMetric(float64(fits)/float64(b.N*count), "fits/network")
	b.ReportMetric(math.Exp(logSum/float64(layers)), "verdict_geomean_s")
	b.ReportMetric((b.Elapsed().Seconds()+float64(measurements.Load())*measurementPrice)/float64(b.N*count), "priced_s/network")
	b.Logf("measurements %d, fits %d over %d networks, verdict geomean %v s",
		measurements.Load(), fits, b.N*count, math.Exp(logSum/float64(layers)))
}

// countMeasurements makes tune count, on the returned counter, the
// measurements its searches take.
func countMeasurements(tune *autotune.Options) *atomic.Int64 {
	n := new(atomic.Int64)
	tune.OnEvent = func(e autotune.Event) {
		if e == autotune.EventMeasure {
			n.Add(1)
		}
	}
	return n
}

// coldZooPass is one cold pass: the six zoo sweeps in order against cache —
// fresh, for a cold pass — with cmd/tuned's network options. It returns each
// sweep's verdicts and every search the pass ran.
func coldZooPass(tb testing.TB, tune autotune.Options, cache *autotune.Cache) ([][]autotune.LayerVerdict, []autotune.SearchTrace) {
	var sweeps [][]autotune.LayerVerdict
	var searches []autotune.SearchTrace
	for _, fx := range zooFixtures() {
		verdicts, ran, err := autotune.TuneNetworkTraces(laneArch, fx.layers, cache, zooOptions(fx, tune))
		if err != nil {
			tb.Fatal(err)
		}
		sweeps = append(sweeps, verdicts)
		searches = append(searches, ran...)
	}
	return sweeps, searches
}

// A cold zoo pass's cache — every kind, Winograd's lowering curves, warm
// searches — writes what the previous encoder wrote, byte for byte, from
// Save, EncodeEntries and the checksum, and every search's curve is the one
// the cache derives from its rows.
func TestZooPassCodec(t *testing.T) {
	cache := autotune.NewCache()
	_, searches := coldZooPass(t, autotune.DefaultOptions(), cache)
	for _, s := range searches {
		autotune.AssertCurveOf(t, fmt.Sprintf("%v %v", s.Space.Kind, s.Space.Shape), s.Trace)
	}
	autotune.AssertWritersMatchTraces(t, cache, searches)
}

// zooOptions are cmd/tuned's network options for one zoo network: Winograd
// and warm-starting on, and MobileNetV1 asking for the FFT and implicit-GEMM
// kinds.
func zooOptions(fx fixture, tune autotune.Options) autotune.NetworkOptions {
	opts := autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true}
	if fx.name == "mobilenetv1" {
		opts.Kinds = []autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}
	}
	return opts
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
