package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 7), one benchmark per artifact, plus ablations of the
// design choices DESIGN.md calls out. Benchmarks run the Quick experiment
// variants so `go test -bench=. -benchmem` finishes in minutes; run
// cmd/repro for the full-scale sweeps. Key outcomes are attached to the
// benchmark output via ReportMetric, so the benchmark log doubles as a
// results record.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/memsim"
	"repro/internal/models"
	"repro/internal/pebble"
	"repro/internal/report"
	"repro/internal/shapes"
)

func quickOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 1} }

// BenchmarkFig9 regenerates Figure 9: dataflow-vs-library speedups for the
// direct convolution (strides 1, 2, 4) and the Winograd algorithm across
// image sizes and output channels on the 1080Ti model.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	var direct, wino float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig9(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var d, w []float64
		for _, r := range results {
			if r.Algorithm == "direct" {
				d = append(d, r.Speedup)
			} else {
				w = append(w, r.Speedup)
			}
		}
		direct, wino = report.GeoMean(d), report.GeoMean(w)
	}
	b.ReportMetric(direct, "direct-speedup-geomean")
	b.ReportMetric(wino, "winograd-speedup-geomean")
}

// BenchmarkFig10 regenerates Figure 10: batched direct-convolution speedups.
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	var gm float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig10(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var v []float64
		for _, r := range results {
			v = append(v, r.Speedup)
		}
		gm = report.GeoMean(v)
	}
	b.ReportMetric(gm, "batched-speedup-geomean")
}

// BenchmarkFig11 regenerates Figure 11: tuning-convergence curves of the
// auto-tuning engine vs simulated annealing, genetic and random search.
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	var ate, lib float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig11(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		ate = res.ATE[len(res.ATE)-1]
		lib = res.Baseline
	}
	b.ReportMetric(ate, "ate-final-gflops")
	b.ReportMetric(lib, "library-gflops")
}

// BenchmarkTable2 regenerates Table 2: search-space sizes, convergence and
// final performance, TVM-proxy vs the engine's pruned searching domain.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	var ratio, perf float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table2(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var ratios, perfs []float64
		for _, r := range rows {
			ratios = append(ratios, r.Ratio)
			perfs = append(perfs, r.PerfRatio)
		}
		ratio, perf = report.GeoMean(ratios), report.GeoMean(perfs)
	}
	b.ReportMetric(100*ratio, "space-ratio-pct")
	b.ReportMetric(perf, "ate-vs-tvm-perf")
}

// BenchmarkFig12 regenerates Figure 12: end-to-end CNN inference.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	var gm float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig12(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var v []float64
		for _, r := range results {
			v = append(v, r.Speedup)
		}
		gm = report.GeoMean(v)
	}
	b.ReportMetric(gm, "model-speedup-geomean")
}

// BenchmarkFig13 regenerates Figure 13: architecture sensitivity.
func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	var vsLib float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig13(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var v []float64
		for _, r := range results {
			v = append(v, r.Ours/r.Library)
		}
		vsLib = report.GeoMean(v)
	}
	b.ReportMetric(vsLib, "ours-vs-library-geomean")
}

// BenchmarkTheory plays pebble games on convolution DAGs and checks the
// bounds, reporting the tightness Q/bound of the best schedule found.
func BenchmarkTheory(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.TheoryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Theory(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Bound > 0 {
			b.ReportMetric(float64(r.QBelady)/r.Bound, "Q-over-bound")
			break
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationPruning isolates the optimality-condition pruning: the
// same engine tunes AlexNet conv2 on the full vs pruned space.
func BenchmarkAblationPruning(b *testing.B) {
	b.ReportAllocs()
	arch := memsim.V100
	layer := shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 256, Hker: 5, Wker: 5, Strid: 1, Pad: 2}
	measure := autotune.KindMeasurer(arch, layer, autotune.Direct)
	opts := autotune.DefaultOptions()
	opts.Budget = 64
	opts.Patience = 0
	var fullG, prunedG float64
	for i := 0; i < b.N; i++ {
		full, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		pruned, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		tf, err := autotune.Tune(full, measure, opts)
		if err != nil {
			b.Fatal(err)
		}
		tp, err := autotune.Tune(pruned, measure, opts)
		if err != nil {
			b.Fatal(err)
		}
		fullG, prunedG = layer.GFLOPS(tf.BestM.Seconds), layer.GFLOPS(tp.BestM.Seconds)
	}
	b.ReportMetric(fullG, "full-space-gflops")
	b.ReportMetric(prunedG, "pruned-space-gflops")
}

// BenchmarkAblationModelGuided isolates the learned cost model: the engine
// vs pure random search at equal budget.
func BenchmarkAblationModelGuided(b *testing.B) {
	b.ReportAllocs()
	arch := memsim.V100
	layer := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 28, Win: 28, Cout: 128, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	measure := autotune.KindMeasurer(arch, layer, autotune.Direct)
	opts := autotune.DefaultOptions()
	opts.Budget = 64
	opts.Patience = 0
	var guided, random float64
	for i := 0; i < b.N; i++ {
		sp, err := autotune.NewSpace(layer, arch, autotune.Direct, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		tg, err := autotune.Tune(sp, measure, opts)
		if err != nil {
			b.Fatal(err)
		}
		rg, err := autotune.RandomSearch(sp, measure, opts)
		if err != nil {
			b.Fatal(err)
		}
		guided, random = layer.GFLOPS(tg.BestM.Seconds), layer.GFLOPS(rg.BestM.Seconds)
	}
	b.ReportMetric(guided, "model-guided-gflops")
	b.ReportMetric(random, "random-gflops")
}

// BenchmarkAblationWinogradE isolates the Winograd output tile size: the
// untuned dataflow design at e=2 vs e=4.
func BenchmarkAblationWinogradE(b *testing.B) {
	b.ReportAllocs()
	arch := memsim.GTX1080Ti
	layer := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	var e2, e4 float64
	for i := 0; i < b.N; i++ {
		r2, err := conv.DryWinogradFused(arch, layer, conv.DefaultWinogradConfig(arch, layer, 2))
		if err != nil {
			b.Fatal(err)
		}
		r4, err := conv.DryWinogradFused(arch, layer, conv.DefaultWinogradConfig(arch, layer, 4))
		if err != nil {
			b.Fatal(err)
		}
		e2, e4 = layer.GFLOPS(r2.Seconds), layer.GFLOPS(r4.Seconds)
	}
	b.ReportMetric(e2, "e2-gflops")
	b.ReportMetric(e4, "e4-gflops")
}

// BenchmarkAblationEviction isolates the greedy pebble scheduler's eviction
// policy on a real convolution DAG.
func BenchmarkAblationEviction(b *testing.B) {
	b.ReportAllocs()
	s := shapes.ConvShape{Batch: 1, Cin: 2, Hin: 6, Win: 6, Cout: 3, Hker: 3, Wker: 3, Strid: 1}
	g, err := dag.BuildDirectConv(s)
	if err != nil {
		b.Fatal(err)
	}
	var lru, belady int
	for i := 0; i < b.N; i++ {
		bl, err := pebble.Greedy(g.Graph, 16, pebble.Belady)
		if err != nil {
			b.Fatal(err)
		}
		lr, err := pebble.Greedy(g.Graph, 16, pebble.LRU)
		if err != nil {
			b.Fatal(err)
		}
		lru, belady = lr.IO(), bl.IO()
	}
	b.ReportMetric(float64(belady), "Q-belady")
	b.ReportMetric(float64(lru), "Q-lru")
}

// BenchmarkTuneNetwork measures the network-level tuning engine on the
// ResNet-18 layer sweep. Each per-candidate measurement carries an emulated
// hardware round-trip (compile + launch + read-back), the latency real
// auto-tuners hide by parallelizing measurement; the workers=N sub-benchmarks
// fan both the layers and each measurement batch across N goroutines.
// Wall-clock should drop ≥ 2x from workers=1 to workers=4 while the tuned
// configurations stay bit-identical (the benchmark fails otherwise).
func BenchmarkTuneNetwork(b *testing.B) {
	arch := memsim.V100
	layers := models.ResNet18().NetworkLayers()
	tune := autotune.DefaultOptions()
	tune.Budget = 32
	tune.Patience = 0
	tune.Seed = 1
	tune.MeasureLatency = 500 * time.Microsecond

	var reference []autotune.LayerVerdict
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := tune
				t.Workers = w
				// Fresh cache per iteration so every run performs the full sweep.
				verdicts, err := autotune.TuneNetwork(arch, layers, autotune.NewCache(),
					autotune.NetworkOptions{Tune: t, Workers: w, Winograd: true})
				if err != nil {
					b.Fatal(err)
				}
				if reference == nil {
					reference = verdicts
				}
				for j := range verdicts {
					if verdicts[j].Config != reference[j].Config || verdicts[j].Kind != reference[j].Kind {
						b.Fatalf("layer %s: workers=%d verdict %v diverges from %v",
							layers[j].Name, w, verdicts[j].Config, reference[j].Config)
					}
				}
				b.ReportMetric(autotune.NetworkSeconds(verdicts)*1e3, "tuned-network-ms")
			}
		})
	}
}

// BenchmarkTuneNetworkMixedKinds measures per-layer kernel choice on the
// MobileNet-V1 sweep — the grouped/depthwise network where the choice
// matters most. Two arms at the same per-layer budget: direct-only, and the
// full candidate set (Winograd + FFT + implicit-GEMM filtered per layer by
// the candidate rule). Widening the candidate set can only improve the kept
// verdicts, so the mixed arm's repeat-weighted network time must be no
// worse than direct-only's — the benchmark hard-fails otherwise. The cost
// of the wider search (more searches per layer) is the wall-clock delta
// `go test -bench` reports.
func BenchmarkTuneNetworkMixedKinds(b *testing.B) {
	arch := memsim.V100
	layers := models.MobileNetV1().NetworkLayers()
	tune := autotune.DefaultOptions()
	tune.Budget = 32
	tune.Patience = 0
	tune.Seed = 1
	tune.MeasureLatency = 500 * time.Microsecond

	arms := []struct {
		name string
		opts autotune.NetworkOptions
	}{
		{"direct-only", autotune.NetworkOptions{Tune: tune, Workers: 4}},
		{"mixed", autotune.NetworkOptions{Tune: tune, Workers: 4, Winograd: true,
			Kinds: []autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}}},
	}
	net := make(map[string]float64)
	for _, arm := range arms {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			var n float64
			for i := 0; i < b.N; i++ {
				verdicts, err := autotune.TuneNetwork(arch, layers, autotune.NewCache(), arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				n = autotune.NetworkSeconds(verdicts)
			}
			net[arm.name] = n
			b.ReportMetric(n*1e3, "tuned-network-ms")
		})
	}
	if net["mixed"] > net["direct-only"] {
		b.Fatalf("mixed-kind network %.6gs worse than direct-only %.6gs at equal budget",
			net["mixed"], net["direct-only"])
	}
}

// BenchmarkTuneNetworkWarm isolates cross-layer warm-starting on the
// ResNet-18 sweep. Three arms, each a fresh cache, every measurement
// carrying the emulated hardware round-trip:
//
//	cold         — every distinct layer tuned from scratch at the shared
//	               per-layer budget/patience
//	warm         — the same budget/patience with the transfer schedule:
//	               one representative search per layer family runs cold,
//	               every other layer starts from the pool's fitted cost
//	               model and transferred incumbents
//	cold-matched — the cold path at the engine's default budget/patience,
//	               the setting it needs to reach the warm arm's verdict
//
// The repeat-weighted network-time guards are deterministic and hard-fail:
// at equal budget the warm sweep's verdict must be no worse than cold's,
// and the cold-matched arm must actually reach the warm verdict (measured,
// warm retires layers after ~30% fewer measurements and lands a 15-20%
// better verdict at equal budget). The headline wall-clock margin — the
// cold path needs several times the time (~8x on the reference machine,
// against a ≥ 2x acceptance bar) to match what the warm sweep delivers —
// is load-dependent, so it is logged (`go test -bench`) rather than
// asserted.
func BenchmarkTuneNetworkWarm(b *testing.B) {
	arch := memsim.V100
	layers := models.ResNet18().NetworkLayers()
	tune := autotune.DefaultOptions()
	tune.Budget = 128
	tune.Patience = 16
	tune.Seed = 1
	tune.MeasureLatency = 500 * time.Microsecond
	matched := autotune.DefaultOptions() // Budget 400, Patience 90
	matched.Seed = 1
	matched.MeasureLatency = tune.MeasureLatency

	arms := []struct {
		name string
		opts autotune.Options
		warm bool
	}{
		{"cold", tune, false},
		{"warm", tune, true},
		{"cold-matched", matched, false},
	}
	net := make(map[string]float64)
	avgNs := make(map[string]float64)
	for _, arm := range arms {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			start := time.Now()
			var n float64
			for i := 0; i < b.N; i++ {
				verdicts, err := autotune.TuneNetwork(arch, layers, autotune.NewCache(),
					autotune.NetworkOptions{Tune: arm.opts, Workers: 4, Winograd: true, Warm: arm.warm})
				if err != nil {
					b.Fatal(err)
				}
				n = autotune.NetworkSeconds(verdicts)
			}
			net[arm.name] = n
			avgNs[arm.name] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
			b.ReportMetric(n*1e3, "tuned-network-ms")
		})
	}
	// The two verdict-quality guards are deterministic (fixed seed) and
	// hard-fail; the wall-clock margin is load-dependent — a single
	// -benchtime=1x sample on a noisy CI runner is not evidence — so it is
	// reported (≈8x on the reference machine, the ≥2x acceptance bar)
	// instead of asserted; bench/history.jsonl tracks the sweep's timings.
	if c, w := net["cold"], net["warm"]; c > 0 && w > c*(1+1e-9) {
		b.Fatalf("equal budget: warm network time %.6g worse than cold %.6g", w, c)
	}
	if m, w := net["cold-matched"], net["warm"]; m > 0 && m > w*(1+1e-9) {
		b.Fatalf("cold-matched arm (%.6g) did not reach the warm verdict (%.6g)", m, w)
	}
	if m, w := avgNs["cold-matched"], avgNs["warm"]; m > 0 && w > 0 {
		b.Logf("warm speedup vs cold-matched: %.2fx", m/w)
	}
}

// BenchmarkAnalyticVerdict times the instant-verdict tier on the full
// ResNet-18 inventory: "scan" pays the once-per-space enumeration a cold
// daemon pays on its first degraded answer; "serve" is the steady-state
// memoized path every later answer takes — the budget the degradation
// story depends on (a degraded daemon must answer in well under a
// millisecond per network, no matter how overloaded the measured path is).
func BenchmarkAnalyticVerdict(b *testing.B) {
	arch := memsim.V100
	layers := models.ResNet18().NetworkLayers()
	kinds := []autotune.Kind{autotune.Winograd}
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := autotune.NewAnalyticDSE(arch).NetworkKinds(layers, kinds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serve", func(b *testing.B) {
		b.ReportAllocs()
		dse := autotune.NewAnalyticDSE(arch)
		verdicts, err := dse.NetworkKinds(layers, kinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dse.NetworkKinds(layers, kinds); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(autotune.NetworkSeconds(verdicts)*1e3, "analytic-network-ms")
	})
}

// BenchmarkTuneResume compares tuning AlexNet conv2 to a 192-measurement
// budget from scratch against resuming a cache that already persists the
// first 96 measurements: the resumed run replays the history (no repeat
// measurements, each fresh one still paying the emulated round-trip) and
// only spends the remaining budget.
func BenchmarkTuneResume(b *testing.B) {
	arch := memsim.V100
	// AlexNet conv2, the layer the engine benchmarks share.
	s := shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 256, Hker: 5, Wker: 5, Strid: 1, Pad: 2}
	measure := autotune.KindMeasurer(arch, s, autotune.Direct)
	opts := autotune.DefaultOptions()
	opts.Patience = 0
	opts.Seed = 1
	opts.MeasureLatency = 200 * time.Microsecond

	mustSpace := func() *autotune.Space {
		sp, err := autotune.NewSpace(s, arch, autotune.Direct, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		return sp
	}
	// Persist a half-budget search once; each resume iteration reloads it.
	halfCache := autotune.NewCache()
	half := opts
	half.Budget = 96
	if _, err := autotune.TuneResumed(halfCache, mustSpace(), measure, half); err != nil {
		b.Fatal(err)
	}
	var persisted bytes.Buffer
	if err := halfCache.Save(&persisted); err != nil {
		b.Fatal(err)
	}

	full := opts
	full.Budget = 192
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := autotune.Tune(mustSpace(), measure, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resume", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := autotune.NewCache()
			if err := cache.Load(bytes.NewReader(persisted.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			tr, err := autotune.TuneResumed(cache, mustSpace(), measure, full)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(tr.Measurements), "total-measurements")
			}
		}
	})
}

// BenchmarkDirectTiledWet measures the wall-clock cost of the wet (real
// data) dataflow execution itself — the library's own performance as Go
// code, not the simulated GPU time.
func BenchmarkDirectTiledWet(b *testing.B) {
	arch := memsim.GTX1080Ti
	s := shapes.ConvShape{Batch: 1, Cin: 32, Hin: 56, Win: 56, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	in, ker := conv.RandomOperands(s, 1)
	cfg := conv.DefaultDirectConfig(arch, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.DirectTiled(arch, s, cfg, in, ker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWinogradFusedWet is the wet-execution benchmark for the fused
// Winograd dataflow.
func BenchmarkWinogradFusedWet(b *testing.B) {
	arch := memsim.GTX1080Ti
	s := shapes.ConvShape{Batch: 1, Cin: 32, Hin: 56, Win: 56, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	in, ker := conv.RandomOperands(s, 2)
	cfg := conv.DefaultWinogradConfig(arch, s, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.WinogradFused(arch, s, cfg, in, ker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureDry measures one count-only dataflow evaluation through
// the engine's memoized measurer — the steady-state unit of work of every
// tuning measurement (the memo is how repeated evaluations of equivalent
// tiles during a search become O(1) lookups). Must run at 0 allocs/op.
func BenchmarkMeasureDry(b *testing.B) {
	arch := memsim.V100
	s := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 112, Win: 112, Cout: 512, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	cfg := conv.DefaultDirectConfig(arch, s)
	measure := autotune.KindMeasurer(arch, s, autotune.Direct)
	if _, ok := measure(cfg); !ok {
		b.Fatal("default config rejected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := measure(cfg); !ok {
			b.Fatal("measurement failed")
		}
	}
}

// BenchmarkMeasureDryWinograd is the Winograd counterpart of
// BenchmarkMeasureDry (memoized steady state, 0 allocs/op).
func BenchmarkMeasureDryWinograd(b *testing.B) {
	arch := memsim.V100
	s := shapes.ConvShape{Batch: 1, Cin: 256, Hin: 56, Win: 56, Cout: 128, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	cfg := conv.DefaultWinogradConfig(arch, s, 2)
	measure := autotune.KindMeasurer(arch, s, autotune.Winograd)
	if _, ok := measure(cfg); !ok {
		b.Fatal("default config rejected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := measure(cfg); !ok {
			b.Fatal("measurement failed")
		}
	}
}
