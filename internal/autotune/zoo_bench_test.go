package autotune_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/autotune"
	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
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
// warm path's guard), the cost-model fits its searches ran, the geomean of
// the novel verdicts' simulated seconds, which a change of the warm seeds
// may move, and priced_s/network, its seconds with its
// measurements priced (measurementPrice).
func BenchmarkNovelSweepsWarm(b *testing.B) {
	const count = 48
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	fresh := tune
	fresh.Budget = 48
	measurements := countMeasurements(&fresh)
	opts := autotune.NetworkOptions{Tune: fresh, Winograd: true, Warm: true}
	nets := novelNetworks(b, count)
	var refits int
	var logSum float64
	layers := 0
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cache := autotune.NewCache()
		coldZooPass(b, tune, cache)
		logSum, layers = 0, 0
		b.StartTimer()
		for _, net := range nets {
			verdicts, searches, err := autotune.TuneNetworkTraces(laneArch, net, cache, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range searches {
				refits += s.Refits
			}
			for _, v := range verdicts {
				logSum += math.Log(v.M.Seconds)
				layers++
			}
		}
		b.StopTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*count), "ms/network")
	b.ReportMetric(float64(measurements.Load())/float64(b.N*count), "measurements/network")
	b.ReportMetric(float64(refits)/float64(b.N*count), "refits/network")
	b.ReportMetric(math.Exp(logSum/float64(layers)), "verdict_geomean_s")
	b.ReportMetric((b.Elapsed().Seconds()+float64(measurements.Load())*measurementPrice)/float64(b.N*count), "priced_s/network")
	b.Logf("measurements %d, refits %d over %d networks, verdict geomean %v s",
		measurements.Load(), refits, b.N*count, math.Exp(logSum/float64(layers)))
}

// novelNetworks are count networks of 2 or 3 unit-stride layers — kernels
// rotating over 1, 3 and 5 — that share no shape with the zoo or with each
// other: what a daemon holding the zoo still tunes fresh. Each kernel has
// 100 shapes to deal, less the zoo's; count beyond what they cover fails tb.
func novelNetworks(tb testing.TB, count int) [][]autotune.NetworkLayer {
	taken := make(map[shapes.ConvShape]bool)
	for _, fx := range zooFixtures() {
		for _, l := range fx.layers {
			taken[l.Shape] = true
		}
	}
	chans, sizes, kernels := []int{16, 32, 64, 128, 256}, []int{7, 14, 28, 56}, []int{1, 3, 5}
	shape := func(cin, cout, hw, k int) shapes.ConvShape {
		return shapes.ConvShape{Batch: 1, Cin: cin, Cout: cout, Hin: hw, Win: hw, Hker: k, Wker: k, Strid: 1, Pad: k / 2}
	}
	free := make(map[int]int, len(kernels)) // per kernel, the shapes not yet taken
	for _, k := range kernels {
		for _, cin := range chans {
			for _, cout := range chans {
				for _, hw := range sizes {
					if !taken[shape(cin, cout, hw, k)] {
						free[k]++
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	nets := make([][]autotune.NetworkLayer, count)
	dealt := 0
	for i := range nets {
		for len(nets[i]) < 2+i%2 {
			k, hw := kernels[dealt%len(kernels)], sizes[rng.Intn(len(sizes))]
			if free[k] == 0 {
				tb.Fatalf("novelNetworks: every %d×%d shape is dealt by network %d of %d", k, k, i+1, count)
			}
			s := shape(chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))], hw, k)
			if taken[s] {
				continue
			}
			taken[s] = true
			free[k]--
			nets[i] = append(nets[i], autotune.NetworkLayer{Name: fmt.Sprintf("conv%d", len(nets[i])), Shape: s, Repeat: 1})
			dealt++
		}
	}
	return nets
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
	return coldZooPassOn(tb, laneArch, tune, cache)
}

// coldZooPassOn is coldZooPass on arch.
func coldZooPassOn(tb testing.TB, arch memsim.Arch, tune autotune.Options, cache *autotune.Cache) ([][]autotune.LayerVerdict, []autotune.SearchTrace) {
	var sweeps [][]autotune.LayerVerdict
	var searches []autotune.SearchTrace
	for _, fx := range zooFixtures() {
		verdicts, ran, err := autotune.TuneNetworkTraces(arch, fx.layers, cache, zooOptions(fx, tune))
		if err != nil {
			tb.Fatal(err)
		}
		sweeps = append(sweeps, verdicts)
		searches = append(searches, ran...)
	}
	return sweeps, searches
}

// A cold zoo pass's cache — every kind, warm searches — writes what the
// reference encoder writes, byte for byte, from Save, EncodeEntries and the
// checksum, and every search's best-so-far series agrees with its verdict
// and ConvergedAt.
func TestZooPassCodec(t *testing.T) {
	cache := autotune.NewCache()
	_, searches := coldZooPass(t, autotune.DefaultOptions(), cache)
	for _, s := range searches {
		autotune.AssertBestSoFar(t, fmt.Sprintf("%v %v", s.Space.Kind, s.Space.Shape), s.Trace)
	}
	autotune.AssertWritersMatchTraces(t, cache, searches)
}

// A lower-budget arrival moves no seed the zoo ranks: on a zoo-filled cache,
// zoo searches re-run at budget 48 and one network's searches cut short by
// an expired deadline arrive in several orders; the join rejects each, and
// after every arrival its own space's seeds, and at the end of each order
// those of every zoo search, are the ones the zoo alone ranks, in the same
// order.
func TestPrimeIgnoresLowerBudgetArrivals(t *testing.T) {
	tune := autotune.DefaultOptions()
	tune.Seed = 0
	zoo := autotune.NewCache()
	coldZooPass(t, tune, zoo)

	// The arrivals are tuned once, into fresh caches: two zoo networks at
	// budget 48, then a third at the default budget under an expired
	// deadline, which persists its first searches at the measurements they
	// took. Only arrivals the zoo's entry supersedes are kept.
	type search struct {
		kind  autotune.Kind
		shape shapes.ConvShape
	}
	type arrival struct {
		entry autotune.CacheEntry
		space search
	}
	var arrivals []arrival
	var spaces []search
	seen := make(map[search]bool)
	arrive := func(ctx context.Context, fx fixture, tune autotune.Options) []autotune.LayerVerdict {
		t.Helper()
		fresh := autotune.NewCache()
		opts := zooOptions(fx, tune)
		verdicts, err := autotune.TuneNetworkContext(ctx, laneArch, fx.layers, fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range autotune.Searches(laneArch, fx.layers, opts) {
			e, ok := fresh.Entry(laneArch.Name, s.Kind, s.Shape)
			held, inZoo := zoo.Entry(laneArch.Name, s.Kind, s.Shape)
			k := search{s.Kind, s.Shape}
			if ok && inZoo && held.Supersedes(e) {
				arrivals = append(arrivals, arrival{e, k})
			}
			if inZoo && !seen[k] {
				seen[k] = true
				spaces = append(spaces, k)
			}
		}
		return verdicts
	}
	fixtures := zooFixtures()
	low := tune
	low.Budget = 48
	arrive(context.Background(), fixtures[2], low)
	arrive(context.Background(), fixtures[3], low)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if verdicts := arrive(expired, fixtures[0], tune); !slices.ContainsFunc(verdicts, func(v autotune.LayerVerdict) bool { return v.Partial }) {
		t.Fatal("every search under an expired deadline ran to completion")
	}
	if len(arrivals) == 0 {
		t.Fatal("the join keeps every arrival: the check compares nothing")
	}

	want := make(map[search][2][]conv.Config)
	seedsOf := func(c *autotune.Cache, s search) [2][]conv.Config {
		t.Helper()
		sp, err := autotune.NewSpace(s.shape, laneArch, s.kind, 0, true)
		if err != nil {
			return [2][]conv.Config{}
		}
		return [2][]conv.Config{autotune.WarmSeeds(c, sp, false), autotune.WarmSeeds(c, sp, true)}
	}
	ranked := 0
	for _, s := range spaces {
		want[s] = seedsOf(zoo, s)
		ranked += len(want[s][0])
	}
	if ranked == 0 {
		t.Fatal("the zoo ranks no seed: the check compares nothing")
	}

	rng := rand.New(rand.NewSource(1))
	orders := [][]arrival{arrivals, slices.Clone(arrivals), slices.Clone(arrivals)}
	slices.Reverse(orders[1])
	rng.Shuffle(len(orders[2]), func(i, j int) { orders[2][i], orders[2][j] = orders[2][j], orders[2][i] })
	for o, order := range orders {
		cache := autotune.Restarted(zoo)
		for i, a := range order {
			e, s := a.entry, a.space
			if err := cache.PutEntries([]autotune.CacheEntry{e}); err != nil {
				t.Fatal(err)
			}
			if got := seedsOf(cache, s); !reflect.DeepEqual(got, want[s]) {
				t.Fatalf("order %d, arrival %d (%s %+v, budget %d): seeds %v, the zoo's %v", o, i, e.Kind, e.Shape, e.Budget, got, want[s])
			}
		}
		for _, s := range spaces {
			if got := seedsOf(cache, s); !reflect.DeepEqual(got, want[s]) {
				t.Fatalf("order %d: %s %+v seeds %v, the zoo's %v", o, s.kind, s.shape, got, want[s])
			}
		}
	}
	t.Logf("%d arrivals rejected, %d zoo spaces, %d seeds", len(arrivals), len(spaces), ranked)
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
