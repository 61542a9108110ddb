package autotune

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// randomNetwork draws a small staged network — the repeated-geometry
// structure (same kernel family, channels doubling as resolution halves,
// repeated blocks per stage) that cross-layer transfer exists for, with the
// stage depths, repeats, kernel and base width randomized.
func randomNetwork(rng *rand.Rand) []NetworkLayer {
	k := []int{1, 3, 3}[rng.Intn(3)]
	ch := []int{16, 32}[rng.Intn(2)]
	hw := 28
	var layers []NetworkLayer
	for stage := 0; stage < 3; stage++ {
		s := shapes.ConvShape{Batch: 1, Cin: ch, Cout: ch, Hker: k, Wker: k,
			Strid: 1, Pad: k / 2, Hin: hw, Win: hw}
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			layers = append(layers, NetworkLayer{Name: fmt.Sprintf("s%d_%d", stage, i),
				Shape: s, Repeat: 1 + rng.Intn(2)})
		}
		hw /= 2
		ch *= 2
	}
	return layers
}

// The warm-start property: on randomized repeated-geometry networks, a
// warm-started sweep's repeat-weighted network time is never worse than
// the cold sweep's at equal per-layer budget. Warm layers measure the
// transferred incumbents first and the bound filter prunes against them
// from measurement #1, so on related geometry transfer only adds
// information (the trial set pins ten networks across both algorithms).
func TestWarmNetworkNeverWorse(t *testing.T) {
	warmNeverWorse(t, 71, 10)
}

// The warm-start property over 200 networks, twenty from each of the rng
// seeds 71–80. A loop batch takes one configuration per tile except while
// the incumbent is fresh (pickBatch); without that exception 27 of these 200
// warm sweeps came out worse than cold, by up to 0.54 %.
func TestWarmNetworkNeverWorseSeeded(t *testing.T) {
	for seed := int64(71); seed <= 80; seed++ {
		warmNeverWorse(t, seed, 20)
	}
}

// warmNeverWorse draws trials networks from rng seed seed and requires each
// warm sweep's network time to be no worse than the cold sweep's, Winograd
// on for even trials.
func warmNeverWorse(t *testing.T, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		layers := randomNetwork(rng)
		opts := NetworkOptions{Tune: smallOpts(32, 3), Workers: 4, Winograd: trial%2 == 0}
		cold, err := TuneNetwork(arch, layers, NewCache(), opts)
		if err != nil {
			t.Fatalf("seed %d trial %d cold: %v", seed, trial, err)
		}
		warm := opts
		warm.Warm = true
		got, err := TuneNetwork(arch, layers, NewCache(), warm)
		if err != nil {
			t.Fatalf("seed %d trial %d warm: %v", seed, trial, err)
		}
		cs, ws := NetworkSeconds(cold), NetworkSeconds(got)
		if ws > cs*(1+1e-9) {
			t.Errorf("seed %d trial %d: warm network time %.6g worse than cold %.6g", seed, trial, ws, cs)
		}
	}
}

// Warm-started sweeps stay bit-identical across every worker knob: the
// seed candidates are read before any search of a kind runs, so neither
// the layer fan-out nor the per-search measurement executor can reorder
// what any search sees.
func TestTuneNetworkWarmDeterministic(t *testing.T) {
	layers := resnetBlockLayers()
	run := func(workers int) []LayerVerdict {
		o := NetworkOptions{Tune: smallOpts(24, 3), Workers: workers, Winograd: true, Warm: true}
		o.Tune.Workers = workers
		v, err := TuneNetwork(arch, layers, NewCache(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return v
	}
	ref := run(1)
	for _, w := range []int{4, 9} {
		got := run(w)
		for i := range layers {
			if got[i].Config != ref[i].Config || got[i].M != ref[i].M || got[i].Kind != ref[i].Kind {
				t.Errorf("layer %s: warm verdict differs at workers=%d: %+v vs %+v",
					layers[i].Name, w, got[i], ref[i])
			}
		}
	}
}

// A warm-started Tune — transferred seeds, the floor residual — is
// bit-identical (trace, curve, Pruned counter, refits) for any measurement
// worker count, like the cold engine.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	donor := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	dsp, err := NewSpace(donor, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	dtr, err := Tune(dsp, KindMeasurer(arch, donor, Direct), smallOpts(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	donors := NewCache()
	donors.PutTrace(arch.Name, Direct, donor, dtr)
	sp := mustSpace(t, true)
	warm := seedsFor(sp, donors.candidates(arch.Name, Direct, false), false)
	if warm == nil {
		t.Fatal("the donor's verdict seeds nothing")
	}

	measure := KindMeasurer(arch, layer(), Direct)
	opts := smallOpts(48, 11)
	opts.warm = warm
	ref, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 9} {
		o := opts
		o.Workers = workers
		tr, err := Tune(sp, measure, o)
		if err != nil {
			t.Fatal(err)
		}
		if !traceEqual(ref, tr) || tr.Refits != ref.Refits {
			t.Errorf("workers=%d: warm trace diverges (best %v vs %v, pruned %d vs %d, refits %d vs %d)",
				workers, tr.Best, ref.Best, tr.Pruned, ref.Pruned, tr.Refits, ref.Refits)
		}
	}
}

// A cache saved by a warm sweep and loaded again seeds a later warm search
// as the saved one does: the floor ratio is not in the file, and Load
// computes it again from each entry, so the stage layer's seeds come out the
// same, with pruning and under NoPrune.
func TestWarmPoolPrimedFromCache(t *testing.T) {
	layers := resnetBlockLayers()
	cache := NewCache()
	opts := NetworkOptions{Tune: smallOpts(24, 3), Workers: 4, Warm: true}
	if _, err := TuneNetwork(arch, layers, cache, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(layers[1].Shape, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, noPrune := range []bool{false, true} {
		want := seedsFor(sp, cache.candidates(arch.Name, Direct, noPrune), noPrune)
		if want == nil {
			t.Fatalf("noPrune %v: the saved cache seeds no search of the stage layer", noPrune)
		}
		got := seedsFor(sp, restored.candidates(arch.Name, Direct, noPrune), noPrune)
		if got == nil || !reflect.DeepEqual(got.Seeds, want.Seeds) {
			t.Fatalf("noPrune %v: reloaded cache seeds %v, the saved one %v", noPrune, got, want.Seeds)
		}
	}
}

// A warm search's seeds are capped: a cache holding many sibling verdicts
// that snap into one space must not hand the search more than warmSeeds
// seeds, which it would measure before it can explore.
func TestWarmPoolSeedCap(t *testing.T) {
	donor := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	var layers []NetworkLayer
	for _, cin := range []int{16, 32, 64, 128} {
		for _, hw := range []int{7, 14, 28, 56} {
			s := donor
			s.Cin, s.Hin, s.Win = cin, hw, hw
			layers = append(layers, NetworkLayer{Name: fmt.Sprintf("c%d_hw%d", cin, hw), Shape: s, Repeat: 1})
		}
	}
	cache := NewCache()
	if _, err := TuneNetwork(arch, layers, cache, NetworkOptions{Tune: smallOpts(32, 5), Workers: 2}); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(donor, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, noPrune := range []bool{false, true} {
		cands := cache.candidates(arch.Name, Direct, noPrune)
		snapped := make(map[conv.Config]bool)
		for _, c := range cands {
			if cfg, ok := sp.snap(c.cfg); ok && sp.measurable(cfg) {
				snapped[cfg] = true
			}
		}
		if len(snapped) <= warmSeeds {
			t.Fatalf("noPrune %v: only %d distinct verdicts snap into the space: the cap is never reached", noPrune, len(snapped))
		}
		w := seedsFor(sp, cands, noPrune)
		if w == nil || len(w.Seeds) != warmSeeds {
			t.Errorf("noPrune %v: %d candidates seed %v, want %d seeds", noPrune, len(snapped), w, warmSeeds)
		}
	}
}

// Warm sweeps sharing one cache run concurrently: two copies of each of four
// networks sweep at once, each ranking its seeds from whatever the others
// have written by then. Every sweep completes, every verdict is its config's
// measurement, the copies of a network agree verdict for verdict — an
// identical search runs once and is joined or read from the cache — and
// afterwards the cache alone answers every network.
func TestConcurrentWarmSweepsShareCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nets := [][]NetworkLayer{resnetBlockLayers(), resnet18Layers()[1:6], randomNetwork(rng), randomNetwork(rng)}
	opts := NetworkOptions{Tune: smallOpts(48, 3), Workers: 2, Winograd: true, Warm: true}
	cache := NewCache()
	verdicts := make([][]LayerVerdict, 2*len(nets))
	errs := make([]error, len(verdicts))
	var wg sync.WaitGroup
	for i := range verdicts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts[i], errs[i] = TuneNetwork(arch, nets[i%len(nets)], cache, opts)
		}()
	}
	wg.Wait()
	for i, got := range verdicts {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		twin := verdicts[(i+len(nets))%len(verdicts)]
		for j, v := range got {
			if m, ok := KindMeasurer(arch, v.Layer.Shape, v.Kind)(v.Config); !ok || m != v.M {
				t.Errorf("sweep %d, layer %s: verdict %v measures %v (ok %v), not %v", i, v.Layer.Name, v.Config, m, ok, v.M)
			}
			if w := twin[j]; v.Kind != w.Kind || v.Config != w.Config || v.M != w.M {
				t.Errorf("sweep %d, layer %s: %s %v, its twin %s %v", i, v.Layer.Name, v.Kind, v.Config, w.Kind, w.Config)
			}
		}
		if _, _, ok := CachedNetwork(arch, nets[i%len(nets)], cache, opts); !ok {
			t.Errorf("sweep %d: the cache does not answer its network afterwards", i)
		}
	}
}

// countRepeats wraps a measurer and fails the test if any config in
// forbidden is ever measured.
func countRepeats(t *testing.T, inner Measurer, forbidden map[conv.Config]bool) (Measurer, *int) {
	t.Helper()
	calls := new(int)
	return func(c conv.Config) (Measurement, bool) {
		*calls++
		if forbidden[c] {
			t.Errorf("config %v re-measured despite persisted history", c)
		}
		return inner(c)
	}, calls
}

// Resume at a doubled budget: the persisted history replays — zero repeat
// measurements — the history extends the original exactly, and
// the verdict can only improve.
func TestResumeDoubledBudgetNoRemeasure(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	cache := NewCache()
	cfg0, m0, err := TuneCached(cache, sp, measure, smallOpts(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := cache.State(arch.Name, Direct, layer())
	if !ok || len(hist) == 0 {
		t.Fatal("TuneCached persisted no engine state")
	}
	already := make(map[conv.Config]bool, len(hist))
	for _, h := range hist {
		already[h.Config] = true
	}

	counting, calls := countRepeats(t, measure, already)
	tr, err := TuneResumed(cache, sp, counting, smallOpts(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if *calls == 0 {
		t.Error("resume at doubled budget measured nothing new")
	}
	if tr.Measurements != len(hist)+*calls {
		t.Errorf("measurements %d != replayed %d + fresh %d", tr.Measurements, len(hist), *calls)
	}
	if len(tr.History) < len(hist) {
		t.Fatalf("resumed history shorter than original: %d < %d", len(tr.History), len(hist))
	}
	for i := range hist {
		if tr.History[i] != hist[i] {
			t.Fatalf("resumed history diverges from the original at %d", i)
		}
	}
	if tr.BestM.Seconds > m0.Seconds {
		t.Errorf("resumed best %.6g worse than original %.6g (%v vs %v)",
			tr.BestM.Seconds, m0.Seconds, tr.Best, cfg0)
	}
	// The grown state persisted: resuming again under the same budget is
	// satisfied from the cache without a single measurement.
	counting2, calls2 := countRepeats(t, measure, nil)
	tr2, err := TuneResumed(cache, sp, counting2, smallOpts(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if *calls2 != 0 {
		t.Errorf("covered resume still measured %d configs", *calls2)
	}
	if tr2.BestM != tr.BestM {
		t.Errorf("covered resume verdict %v != persisted %v", tr2.BestM, tr.BestM)
	}
}

// A search that stopped on patience below its budget is covered at that
// budget: resuming with identical options must be a no-op (no fresh
// measurements), not a repeated patience-burn.
func TestResumeCoveredByPatienceStop(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	cache := NewCache()
	opts := smallOpts(200, 5)
	opts.Patience = 10
	if _, _, err := TuneCached(cache, sp, measure, opts); err != nil {
		t.Fatal(err)
	}
	hist, ok := cache.State(arch.Name, Direct, layer())
	if !ok || len(hist) >= 200 {
		t.Fatalf("setup: want a patience-stopped history below budget, got %d rows", len(hist))
	}
	counting, calls := countRepeats(t, measure, nil)
	tr, err := TuneResumed(cache, sp, counting, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 0 {
		t.Errorf("identical resume of a patience-converged search measured %d configs", *calls)
	}
	if tr.Measurements != len(hist) {
		t.Errorf("synthesized trace reports %d measurements, cache holds %d", tr.Measurements, len(hist))
	}
}

// Concurrent TuneResumed calls on one absent key share one run: together
// they measure exactly what one search measures, and every caller gets that
// run's trace. The measurer holds the first measurement until every caller
// has been launched, then keeps the run slow enough for them to find it in
// flight.
func TestTuneResumedSharesFlight(t *testing.T) {
	const callers = 4
	sp := mustSpace(t, true)
	plain := KindMeasurer(arch, layer(), Direct)
	var calls atomic.Int64
	var launched sync.WaitGroup
	launched.Add(callers)
	measure := func(c conv.Config) (Measurement, bool) {
		calls.Add(1)
		launched.Wait()
		time.Sleep(time.Millisecond)
		return plain(c)
	}
	cache := NewCache()
	traces := make([]*Trace, callers)
	errs := make([]error, callers)
	var done sync.WaitGroup
	for i := range traces {
		done.Add(1)
		go func() {
			defer done.Done()
			launched.Done()
			traces[i], errs[i] = TuneResumed(cache, sp, measure, smallOpts(40, 5))
		}()
	}
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if !reflect.DeepEqual(traces[i], traces[0]) {
			t.Errorf("caller %d's trace differs from caller 0's", i)
		}
	}
	if got, want := calls.Load(), int64(traces[0].Measurements); got != want {
		t.Errorf("%d callers measured %d times, want the %d measurements of one search", callers, got, want)
	}
}

// TuneNetwork with Resume re-enters only under-budget cached layers and
// repeats no measurement.
func TestTuneNetworkResume(t *testing.T) {
	layers := resnetBlockLayers()
	cache := NewCache()
	if _, err := TuneNetwork(arch, layers, cache, NetworkOptions{Tune: smallOpts(16, 3), Workers: 4}); err != nil {
		t.Fatal(err)
	}
	already := make(map[conv.Config]bool)
	for _, l := range layers {
		if hist, ok := cache.State(arch.Name, Direct, l.Shape); ok {
			for _, h := range hist {
				already[h.Config] = true
			}
		}
	}
	if len(already) == 0 {
		t.Fatal("no persisted state after the first sweep")
	}
	first := cache.Len()
	o := NetworkOptions{Tune: smallOpts(32, 3), Workers: 4, Resume: true}
	verdicts, err := TuneNetwork(arch, layers, cache, o)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != first {
		t.Errorf("resume changed the key count: %d -> %d", first, cache.Len())
	}
	for i, l := range layers {
		hist, ok := cache.State(arch.Name, Direct, l.Shape)
		if !ok {
			t.Fatalf("layer %s lost its state", l.Name)
		}
		if len(hist) <= 16-1 {
			t.Errorf("layer %s: resumed history not grown (%d rows)", l.Name, len(hist))
		}
		// The resumed history must extend the original: no prefix config
		// re-measured, and the verdict is at least as good as before.
		seen := make(map[conv.Config]int)
		for _, h := range hist {
			seen[h.Config]++
		}
		for c, n := range seen {
			if n > 1 {
				t.Fatalf("layer %s: config %v appears %d times in resumed history", l.Name, c, n)
			}
		}
		_ = i
		_ = verdicts
	}
}

// A covered resume synthesizes its trace from the persisted curve, and must
// report the ConvergedAt the search itself reported. The curve is GFLOP/s of
// an incumbent chosen by seconds, so for Winograd — whose flop count depends
// on the tile edge — it falls when a faster, lower-arithmetic config wins;
// counting only rises under-reported on about half the seeds.
func TestResumeCoveredKeepsConvergedAt(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 16, Hin: 14, Win: 14, Cout: 16, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	for _, kind := range Kinds {
		sp, err := NewSpace(s, arch, kind, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		measure := KindMeasurer(arch, s, kind)
		for seed := int64(1); seed <= 40; seed++ {
			opts := smallOpts(40, seed)
			tr, err := Tune(sp, measure, opts)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCache()
			cache.PutTrace(arch.Name, kind, s, tr)
			got, err := TuneResumed(cache, sp, measure, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.ConvergedAt != tr.ConvergedAt {
				t.Errorf("%s seed %d: covered resume reports ConvergedAt %d, the search reported %d",
					kind, seed, got.ConvergedAt, tr.ConvergedAt)
			}
		}
	}
}

// The cold wave runs only for a kind the cache holds no rankable verdict of.
// A Direct sweep over an empty cache runs one cold search per layer family
// before the rest, which start from the seeds the cold searches' verdicts
// rank. A later sweep of the kind runs no cold wave, even for a family new to
// the cache. A Winograd candidate whose X and Y tiles already sit at their
// minimum lands by shrinking its channel tile. Cold or seeded, a search's
// trace is Tune's from that warm start.
func TestColdWave(t *testing.T) {
	shape := func(k, c, hw int) shapes.ConvShape {
		return shapes.ConvShape{Batch: 1, Cin: c, Hin: hw, Win: hw, Cout: c, Hker: k, Wker: k, Strid: 1, Pad: k / 2}
	}
	// started records the order in which the sweep's searches start: the
	// first measurement of each.
	var mu sync.Mutex
	var started []shapes.ConvShape
	opts := NetworkOptions{Tune: smallOpts(24, 3), Workers: 1, Warm: true,
		WrapMeasurer: func(_ Kind, s shapes.ConvShape, plain Measurer) FallibleMeasurer {
			first := true
			return func(c conv.Config) (Measurement, bool, error) {
				mu.Lock()
				if first {
					first = false
					started = append(started, s)
				}
				mu.Unlock()
				m, ok := plain(c)
				return m, ok, nil
			}
		}}
	sweep := func(cache *Cache, o NetworkOptions, kind Kind, layers ...shapes.ConvShape) map[shapes.ConvShape]SearchTrace {
		t.Helper()
		net := make([]NetworkLayer, len(layers))
		for i, s := range layers {
			net[i] = NetworkLayer{Name: fmt.Sprint(i), Shape: s, Repeat: 1}
		}
		started = nil
		_, searches, err := TuneNetworkTraces(arch, net, cache, o)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[shapes.ConvShape]SearchTrace)
		for _, s := range searches {
			if s.Space.Kind == kind {
				out[s.Space.Shape] = s
			}
		}
		return out
	}
	// tuned holds a search to Tune's trace from the warm start cands rank
	// for it, which must be cold or seeded as warm says.
	tuned := func(s SearchTrace, cands []scored, warm bool) {
		t.Helper()
		o := opts.Tune
		o.warm = seedsFor(s.Space, cands, false)
		if (o.warm != nil) != warm {
			t.Fatalf("%v %+v: seeds %v, want seeded %v", s.Space.Kind, s.Space.Shape, o.warm, warm)
		}
		want, err := Tune(s.Space, KindMeasurer(arch, s.Space.Shape, s.Space.Kind), o)
		if err != nil {
			t.Fatal(err)
		}
		if !traceEqual(s.Trace, want) {
			t.Errorf("%v %+v: the sweep's trace is not Tune's from seeds %v", s.Space.Kind, s.Space.Shape, o.warm)
		}
	}

	// Two families on an empty cache: the first search of each runs cold,
	// then the rest, in plan order.
	a1, a2, a3 := shape(3, 16, 14), shape(3, 32, 14), shape(3, 16, 7)
	b1, b2 := shape(1, 16, 14), shape(1, 32, 14)
	cache := NewCache()
	got := sweep(cache, opts, Direct, a1, a2, b1, b2, a3)
	if want := []shapes.ConvShape{a1, b1, a2, b2, a3}; !reflect.DeepEqual(started, want) {
		t.Fatalf("searches started in the order %v, want %v", started, want)
	}
	wave0 := NewCache()
	for _, s := range []shapes.ConvShape{a1, b1} {
		tuned(got[s], nil, false)
		wave0.PutTrace(arch.Name, Direct, s, got[s].Trace)
	}
	for _, s := range []shapes.ConvShape{a2, b2, a3} {
		tuned(got[s], wave0.candidates(arch.Name, Direct, false), true)
	}

	// The kind now has verdicts: no cold wave, a new family included.
	c1, d1 := shape(3, 64, 7), shape(5, 16, 14)
	cands := cache.candidates(arch.Name, Direct, false)
	got = sweep(cache, opts, Direct, c1, d1)
	for _, s := range []shapes.ConvShape{c1, d1} {
		tuned(got[s], cands, true)
	}

	// A Winograd verdict too deep in channels for the 3×3 space at its Sb,
	// with its X and Y tiles at the e=4 minimum: it lands once its channel
	// tile shrinks, so the search is seeded.
	cache = NewCache()
	cache.Put(arch.Name, Winograd, shape(3, 32, 28), conv.Config{TileX: 4, TileY: 4, TileZ: 16,
		ThreadsX: 1, ThreadsY: 1, ThreadsZ: 1, SharedPerBlock: 256, WinogradE: 4}, Measurement{Seconds: 1e-3})
	cands = cache.candidates(arch.Name, Winograd, false)
	if len(cands) == 0 {
		t.Fatal("the Winograd verdict has no floor ratio: the kind would run a cold wave")
	}
	o := opts
	o.Winograd = true
	got = sweep(cache, o, Winograd, a1)
	tuned(got[a1], cands, true)
}

// An entry's floor ratio is its verdict seconds over the verdict's tight
// floor in its own space, whether the engine's put hands that space over or
// the cache builds it (Load, PutEntries, Put); an entry of an architecture
// outside the catalog, or with a dimension past ratioMaxDim, gets none and
// is a candidate only under NoPrune.
func TestFloorRatio(t *testing.T) {
	s := layer()
	sp := mustSpace(t, true)
	cache := NewCache()
	if _, _, err := TuneCached(cache, sp, KindMeasurer(arch, s, Direct), smallOpts(24, 3)); err != nil {
		t.Fatal(err)
	}
	cfg, m, _ := cache.Get(arch.Name, Direct, s)
	want := []scored{{cfg, m.Seconds / sp.analyticFloor(cfg)}}
	if got := cache.candidates(arch.Name, Direct, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("the engine's put rates %v, want %v", got, want)
	}
	var saved bytes.Buffer
	if err := cache.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache()
	if err := loaded.Load(&saved); err != nil {
		t.Fatal(err)
	}
	if got := loaded.candidates(arch.Name, Direct, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("Load rates %v, want %v", got, want)
	}

	wide := s
	wide.Cin = ratioMaxDim * 2
	for _, e := range []struct {
		arch string
		s    shapes.ConvShape
	}{{"off-catalog", s}, {arch.Name, wide}} {
		c := NewCache()
		c.Put(e.arch, Direct, e.s, cfg, m)
		if got := c.candidates(e.arch, Direct, false); len(got) != 0 {
			t.Errorf("%s %+v: rated %v, want no ratio", e.arch, e.s, got)
		}
		if got := c.candidates(e.arch, Direct, true); !reflect.DeepEqual(got, []scored{{cfg, m.Seconds}}) {
			t.Errorf("%s %+v: NoPrune candidates %v, want the verdict at its seconds", e.arch, e.s, got)
		}
	}
}

// Snap shrinks only a tile axis above its minimum: a Winograd e=4 tile
// 4×4×16 at Sb 256, whose X and Y edges already sit at the e=4 minimum,
// snaps into every 3×3 Winograd space by shrinking its channel tile.
func TestSnapShrinksPastAnAxisMinimum(t *testing.T) {
	c := conv.Config{TileX: 4, TileY: 4, TileZ: 16, ThreadsX: 4, ThreadsY: 4, ThreadsZ: 16,
		SharedPerBlock: 256, WinogradE: 4}
	for _, cin := range []int{3, 64, 256, 2048} {
		for _, px := range []int{7, 56, 224} {
			s := shapes.ConvShape{Batch: 1, Cin: cin, Cout: 64, Hin: px, Win: px, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
			sp, err := NewSpace(s, arch, Winograd, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := sp.Snap(c)
			if !ok || !sp.admissible(got) || got.WinogradE != 4 {
				t.Errorf("Cin %d, %d px: snapped to %v (ok %t), want an admissible e=4 configuration", cin, px, got, ok)
			}
		}
	}
}
