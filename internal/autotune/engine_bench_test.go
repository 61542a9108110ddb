package autotune

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/shapes"
)

// engineBenchLayer is AlexNet conv2 — the mid-size layer the engine
// benchmarks and Table 2 share.
func engineBenchLayer() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 256, Hker: 5, Wker: 5, Strid: 1, Pad: 2}
}

// BenchmarkTuneEngine measures the engine's own overhead: a fixed-budget
// Tune against a warmed memoized measurer, whose steady-state measurement
// is a counts lookup plus an O(1) launch and time model — so model refits,
// proposal ranking and bookkeeping are essentially all that is timed.
//
//	current — the bound-guided engine (warm-started GBT, heap ranking, pruning)
//	noprune — the same engine with the bound filter off
//
// The benchmark reports each variant's final GFLOPS so the quality side is
// visible in the same output.
func BenchmarkTuneEngine(b *testing.B) {
	arch := memsim.V100
	s := engineBenchLayer()
	measure := KindMeasurer(arch, s, Direct) // shared memo: every tile's counts are computed once
	opts := DefaultOptions()
	opts.Budget = 192
	opts.Patience = 0
	opts.Seed = 1

	for _, v := range []struct {
		name    string
		noPrune bool
	}{{"current", false}, {"noprune", true}} {
		b.Run(v.name, func(b *testing.B) {
			o := opts
			o.NoPrune = v.noPrune
			var best, pruned, refits float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp, err := NewSpace(s, arch, Direct, 0, true)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := Tune(sp, measure, o)
				if err != nil {
					b.Fatal(err)
				}
				best = s.GFLOPS(tr.BestM.Seconds)
				pruned = float64(tr.Pruned)
				refits = float64(tr.Refits)
			}
			b.ReportMetric(best, "best-gflops")
			b.ReportMetric(pruned, "pruned")
			b.ReportMetric(refits, "refits/search")
		})
	}
}

// BenchmarkTrainGBTIncremental isolates the trainer's two refit strategies
// on the access pattern they were built for — a dataset growing by one batch
// at a time, refitted after every batch (the schedule the engine ran until it
// amortised its refits; it is kept here because it loads the trainer hardest
// and keeps the numbers comparable with the history):
//
//	full-retrain — the pre-rework strategy: a from-scratch 60-round fit
//	               (per-node value sorts) after every batch
//	warm-start   — the incremental strategy: one full fit, then 8-round
//	               GBTModel.Update per batch on the ranked histogram bins,
//	               with a from-scratch refresh when the forest hits its cap
//
// One op = consuming all batches of the same grown dataset.
func BenchmarkTrainGBTIncremental(b *testing.B) {
	const start, step, total = 64, 8, 320
	x, y := benchRows(total, 13)

	b.Run("full-retrain", func(b *testing.B) {
		b.ReportAllocs()
		var m *GBTModel
		for i := 0; i < b.N; i++ {
			for n := start; n <= total; n += step {
				m = legacyTrainGBT(DefaultGBTConfig(), x[:n], y[:n])
			}
		}
		b.ReportMetric(float64(m.NumTrees()), "trees")
	})
	b.Run("warm-start", func(b *testing.B) {
		cfg := DefaultGBTConfig()
		maxForest := 4 * cfg.Trees
		b.ReportAllocs()
		var m *GBTModel
		for i := 0; i < b.N; i++ {
			m = TrainGBT(cfg, x[:start], y[:start])
			for n := start + step; n <= total; n += step {
				if m.NumTrees()+cfg.UpdateTrees > maxForest {
					m = TrainGBT(cfg, x[:n], y[:n])
				} else {
					m.Update(x[:n], y[:n], cfg.UpdateTrees)
				}
			}
		}
		b.ReportMetric(float64(m.NumTrees()), "trees")
	})
}

// BenchmarkGBTRefit is the trainer under a heavy refit load: an initial fit
// on 512 rows, then 400 more arriving 8 at a time with an 8-round Update per
// arrival and the from-scratch retrain whenever the forest would pass its
// cap. That per-batch sequence is a trainer stress, not the engine's
// schedule: TuneFallible refits when the rows have grown by an eighth (about
// five Updates over the same 400 rows). Its rows are engine features (several near-continuous
// columns), so most batches bring new distinct values and re-rank every row,
// and the deepest level's histograms span hundreds of mostly empty bins: the
// trainer's worst case on both counts. Compare ns/op and B/op against the
// parent before a change to gbt.go reaches the engine benchmarks.
func BenchmarkGBTRefit(b *testing.B) {
	const prior, step, own = 512, 8, 400
	x, y := benchRows(prior+own, 13)
	cfg := DefaultGBTConfig()
	maxForest := 4 * cfg.Trees
	b.ReportAllocs()
	var m *GBTModel
	for i := 0; i < b.N; i++ {
		m = TrainGBT(cfg, x[:prior], y[:prior])
		for n := prior + step; n <= prior+own; n += step {
			if m.NumTrees()+cfg.UpdateTrees > maxForest {
				m = TrainGBT(cfg, x[:n], y[:n])
			} else {
				m.Update(x[:n], y[:n], cfg.UpdateTrees)
			}
		}
	}
	b.ReportMetric(float64(m.NumTrees()), "trees")
}

// benchRows draws feature rows from a real tuning space with their
// measured log-costs, so both trainer benchmarks see the engine's true
// feature distribution (quantized axes, massed ties) rather than smooth
// synthetic data.
func benchRows(n int, seed int64) ([][]float64, []float64) {
	arch := memsim.V100
	s := engineBenchLayer()
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		panic(err)
	}
	measure := KindMeasurer(arch, s, Direct)
	rng := rand.New(rand.NewSource(seed))
	var x [][]float64
	var y []float64
	for len(x) < n {
		c := sp.Sample(rng)
		m, ok := measure(c)
		cost := 20.0
		if ok {
			cost = math.Log(m.Seconds)
		}
		x = append(x, sp.Features(c))
		y = append(y, cost)
	}
	return x, y
}

// TestTuneEngineAllocCeiling holds BenchmarkTuneEngine's two variants — a
// search at budget 192, Patience 0, on a warmed memoized measurer, space
// construction included — to their allocations once every fact of the hot
// loop had one owner: 299 pruned, with the floor scans reading the search's
// own divisor table and the class table built on a recycled walk heap, and
// 903 NoPrune. Each reads the same count in every run, with or without
// -race, so the ceilings are the readings themselves: a change that adds one
// allocation per search, per booking, per proposal or per loop iteration
// fails it.
func TestTuneEngineAllocCeiling(t *testing.T) {
	arch := memsim.V100
	s := engineBenchLayer()
	measure := KindMeasurer(arch, s, Direct)
	for _, v := range []struct {
		name    string
		noPrune bool
		ceiling float64
	}{{"current", false, 299}, {"noprune", true, 903}} {
		opts := DefaultOptions()
		opts.Budget = 192
		opts.Patience = 0
		opts.Seed = 1
		opts.NoPrune = v.noPrune
		allocs := testing.AllocsPerRun(50, func() {
			sp, err := NewSpace(s, arch, Direct, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Tune(sp, measure, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op", v.name, allocs)
		if allocs > v.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", v.name, allocs, v.ceiling)
		}
	}
}
