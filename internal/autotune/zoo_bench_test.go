package autotune_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/autotune"
)

// BenchmarkZooSweepCold is a cold daemon's first pass over the benchmark's
// zoo without the HTTP: six TuneNetwork sweeps in order against one fresh
// cache, with cmd/tuned's defaults (engine defaults at seed 0, Winograd and
// warm-starting on, MobileNetV1 asking for the FFT and implicit-GEMM kinds).
// Measurements are memoised dry runs, so the cost model, the walkers and the
// bound are what is timed — the stage shares in ARCHITECTURE.md's
// "Cost-model fast path" come from a CPU profile of this benchmark.
func BenchmarkZooSweepCold(b *testing.B) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	var measurements atomic.Int64
	tune.OnEvent = func(e autotune.Event) {
		if e == autotune.EventMeasure {
			measurements.Add(1)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := autotune.NewCache()
		measurements.Store(0)
		for _, fx := range zooFixtures() {
			opts := autotune.NetworkOptions{Tune: tune, Winograd: true, Warm: true}
			if fx.name == "mobilenetv1" {
				opts.Kinds = []autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}
			}
			if _, err := autotune.TuneNetwork(laneArch, fx.layers, cache, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(measurements.Load()), "measurements")
}
