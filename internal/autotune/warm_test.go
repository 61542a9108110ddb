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
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		layers := randomNetwork(rng)
		opts := NetworkOptions{Tune: smallOpts(32, 3), Workers: 4, Winograd: trial%2 == 0}
		cold, err := TuneNetwork(arch, layers, NewCache(), opts)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warm := opts
		warm.Warm = true
		got, err := TuneNetwork(arch, layers, NewCache(), warm)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		cs, ws := NetworkSeconds(cold), NetworkSeconds(got)
		if ws > cs*(1+1e-9) {
			t.Errorf("trial %d: warm network time %.6g worse than cold %.6g", trial, ws, cs)
		}
	}
}

// Warm-started sweeps stay bit-identical across every worker knob: the
// two-wave schedule freezes the transfer pool between waves, so neither
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
	pool := newTransferPool()
	pool.contribute(Direct, donor, dtr.History)
	warm := pool.warmFor(familyOf(Direct, donor))
	if warm == nil || len(warm.Seeds) == 0 {
		t.Fatal("donor search contributed nothing to the pool")
	}

	sp := mustSpace(t, true)
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

// A cache saved by a state-persisting run rebuilds the transfer pool on
// load, so a later sweep skips even the cold representative wave.
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
	pool := newTransferPool()
	pool.prime(restored, arch, nil)
	fam := familyOf(Direct, layers[1].Shape)
	if !pool.has(fam) {
		t.Fatal("reloaded cache primed no pool for the stage family")
	}
	// The pool reads the entries' rows for their top configurations only,
	// so a reloaded cache seeds the family what the saved one does.
	want := newTransferPool()
	want.prime(cache, arch, nil)
	if w := pool.warmFor(fam); !reflect.DeepEqual(w.Seeds, want.warmFor(fam).Seeds) {
		t.Fatalf("reloaded cache primes seeds %v, the saved one %v", w.Seeds, want.warmFor(fam).Seeds)
	}
}

// Warm sweeps sharing one cache run concurrently: two copies of each of four
// networks sweep at once, each priming its pool from whatever the others have
// written by then. Every sweep completes, every verdict is its config's
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

// The pool's seed list is capped: repeated contributions to one family
// (e.g. a primed cache with many sibling entries) must not accumulate an
// unbounded seed set that would flood a warm search's budget before it
// can explore.
func TestWarmPoolSeedCap(t *testing.T) {
	donor := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 14, Win: 14, Cout: 32, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	dsp, err := NewSpace(donor, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	dtr, err := Tune(dsp, KindMeasurer(arch, donor, Direct), smallOpts(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := newTransferPool()
	for i := 0; i < 6; i++ {
		pool.contribute(Direct, donor, dtr.History)
	}
	w := pool.warmFor(familyOf(Direct, donor))
	if got, max := len(w.Seeds), poolSeedCapFactor*warmTopK; got > max {
		t.Errorf("pool accumulated %d seeds, cap is %d", got, max)
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
// measurements — the convergence curve extends the original exactly, and
// the verdict can only improve.
func TestResumeDoubledBudgetNoRemeasure(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	cache := NewCache()
	cfg0, m0, err := TuneCached(cache, sp, measure, smallOpts(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	hist, curve, ok := cache.State(arch.Name, Direct, layer())
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
	if len(tr.Curve) < len(curve) {
		t.Fatalf("resumed curve shorter than original: %d < %d", len(tr.Curve), len(curve))
	}
	for i := range curve {
		if tr.Curve[i] != curve[i] {
			t.Fatalf("resumed curve diverges from the original at %d", i)
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
	hist, _, ok := cache.State(arch.Name, Direct, layer())
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
		if hist, _, ok := cache.State(arch.Name, Direct, l.Shape); ok {
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
		hist, _, ok := cache.State(arch.Name, Direct, l.Shape)
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
