package autotune

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

// analyticRegretCap pins the analytic tier's quality: over randomized
// exhaustively-enumerable shapes, the measured time of the analytic winner
// stays within this factor of the true measured optimum of the space. The
// floor orders configurations by their I/O-implied cost, not their modeled
// cost, so the winner can be suboptimal — but a degraded-mode answer worse
// than this factor would make the instant tier useless as a stand-in.
const analyticRegretCap = 2.0

// enumeratedOptimum finds the true measured optimum of a space by full
// enumeration — the ground truth the analytic ranking is judged against.
func enumeratedOptimum(sp *Space, mm *MemoMeasure) (conv.Config, float64, bool) {
	best := math.Inf(1)
	var bestCfg conv.Config
	found := false
	sp.enumerate(func(c conv.Config) bool {
		if m, ok := mm.Measure(c); ok && m.Seconds < best {
			best, bestCfg, found = m.Seconds, c, true
		}
		return true
	})
	return bestCfg, best, found
}

// The regret property: the analytic winner must be measurable, its floor
// admissible (never above its own measured time), and its measured time
// within analyticRegretCap of the enumerated optimum. This is the contract
// that makes an analytic 200 a usable answer rather than a guess.
func TestAnalyticRegret(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	archs := []memsim.Arch{memsim.V100, memsim.GTX1080Ti, memsim.GFX906}
	worst, checked := 0.0, 0
	for trial := 0; trial < 10; trial++ {
		s := randomSmallShape(rng)
		a := archs[trial%len(archs)]
		for _, sp := range boundTestSpaces(t, s, a) {
			v, err := sp.Analytic(1)
			if err != nil {
				// A space with nothing rankable has nothing to regret.
				continue
			}
			mm := NewMemoMeasure(a, s, sp.Kind)
			m, ok := mm.Measure(v.Config)
			if !ok {
				t.Fatalf("%v %s on %s: analytic winner %v rejected by the measurer",
					s, sp.Kind, a.Name, v.Config)
			}
			if m.Seconds < v.Floor {
				t.Errorf("%v %s on %s: floor %.3g not admissible: measured %.3g",
					s, sp.Kind, a.Name, v.Floor, m.Seconds)
			}
			_, opt, found := enumeratedOptimum(sp, mm)
			if !found {
				continue
			}
			regret := m.Seconds / opt
			if regret > worst {
				worst = regret
			}
			checked++
			if regret > analyticRegretCap {
				t.Errorf("%v %s on %s: analytic winner measured %.3gs vs optimum %.3gs (regret %.2fx > %gx)",
					s, sp.Kind, a.Name, m.Seconds, opt, regret, analyticRegretCap)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no (shape, space) pair exercised the regret property")
	}
	t.Logf("checked %d spaces, worst regret %.3fx (cap %gx)", checked, worst, analyticRegretCap)
}

// Every retained verdict's floor is admissible and the ranking is sorted
// best-floor-first; with calibration 1 the estimate is the floor itself.
func TestAnalyticTopAdmissibleAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		s := randomSmallShape(rng)
		for _, sp := range boundTestSpaces(t, s, arch) {
			vs, err := sp.AnalyticTop(0, 1)
			if err != nil {
				continue
			}
			mm := NewMemoMeasure(arch, s, sp.Kind)
			for i, v := range vs {
				if v.Seconds != v.Floor {
					t.Fatalf("calibration 1 must serve the raw floor: %v vs %v", v.Seconds, v.Floor)
				}
				if i > 0 && vs[i-1].Floor > v.Floor {
					t.Fatalf("ranking not sorted: [%d]=%.3g after %.3g", i, v.Floor, vs[i-1].Floor)
				}
				m, ok := mm.Measure(v.Config)
				if !ok {
					t.Fatalf("ranked config %v rejected by the measurer", v.Config)
				}
				if m.Seconds < v.Floor {
					t.Errorf("floor %.3g above measured %.3g for %v", v.Floor, m.Seconds, v.Config)
				}
			}
		}
	}
}

// The analytic ranking is a pure function of the space: two independent
// spaces over the same (shape, arch, kind) produce identical rankings, and
// calibration scales every estimate without reordering anything.
func TestAnalyticDeterministicAndCalibrationScales(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 4, Hin: 10, Win: 10, Cout: 6,
		Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	mk := func() *Space {
		sp, err := NewSpace(s, arch, Direct, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, err := mk().AnalyticTop(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().AnalyticTop(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("rankings differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rankings diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	const cal = 3.5
	c, err := mk().AnalyticTop(0, cal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if c[i].Config != a[i].Config {
			t.Fatalf("calibration reordered the ranking at %d", i)
		}
		if got, want := c[i].Seconds, a[i].Floor*cal; math.Abs(got-want) > 1e-15*want {
			t.Fatalf("calibrated estimate %v, want floor*%v = %v", got, cal, want)
		}
	}
	// A calibration below 1 (or NaN) must clamp to the admissible floor.
	for _, bad := range []float64{0.5, 0, -3, math.NaN()} {
		d, err := mk().AnalyticTop(1, bad)
		if err != nil {
			t.Fatal(err)
		}
		if d[0].Seconds != d[0].Floor {
			t.Fatalf("calibration %v must clamp to 1, got estimate %v over floor %v",
				bad, d[0].Seconds, d[0].Floor)
		}
	}
}

// Calibration fitting: an absent or empty cache serves the raw floor
// (factor 1); a cache holding measured history yields a finite factor ≥ 1
// that brings the analytic estimate toward the measured scale.
func TestCalibrateAnalytic(t *testing.T) {
	if got := CalibrateAnalytic(nil, arch); got != 1 {
		t.Fatalf("nil cache: calibration %v, want 1", got)
	}
	cache := NewCache()
	if got := CalibrateAnalytic(cache, arch); got != 1 {
		t.Fatalf("empty cache: calibration %v, want 1", got)
	}

	s := shapes.ConvShape{Batch: 1, Cin: 4, Hin: 10, Win: 10, Cout: 6,
		Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(s, arch, Direct, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Budget = 24
	tr, err := Tune(sp, NewMemoMeasure(arch, s, Direct).Measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache.PutTrace(arch.Name, Direct, s, tr)
	cal := CalibrateAnalytic(cache, arch)
	if !(cal >= 1) || math.IsInf(cal, 1) {
		t.Fatalf("fitted calibration %v, want finite ≥ 1", cal)
	}
	// A kept tier fits the same factor, installs it, and reads its floors
	// off one memoized space however often it refits.
	tier := NewAnalyticDSE(arch)
	if got := tier.Calibrate(cache); got != cal || tier.calibration() != cal {
		t.Fatalf("tier calibration %v (installed %v), want %v", got, tier.calibration(), cal)
	}
	built := tier.spaces[dseKey{Direct, s}]
	if tier.Calibrate(cache); len(tier.spaces) != 1 || built == nil || tier.spaces[dseKey{Direct, s}] != built {
		t.Fatalf("refit rebuilt the tier's spaces: %d held", len(tier.spaces))
	}
	// A different architecture has no rows here and stays at 1.
	if got := CalibrateAnalytic(cache, memsim.TitanX); got != 1 {
		t.Fatalf("foreign-arch calibration %v, want 1", got)
	}
}

// The DSE facade: every verdict carries TierAnalytic, Winograd is chosen
// only where it is admissible and estimated faster, and two independent
// DSEs agree — the determinism the daemon's degraded mode inherits.
func TestAnalyticDSENetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	layers := randomNetwork(rng)
	run := func() []LayerVerdict {
		t.Helper()
		verdicts, err := NewAnalyticDSE(arch).NetworkKinds(layers, []Kind{Winograd})
		if err != nil {
			t.Fatal(err)
		}
		return verdicts
	}
	a, b := run(), run()
	if len(a) != len(layers) {
		t.Fatalf("%d verdicts for %d layers", len(a), len(layers))
	}
	for i := range a {
		if a[i].Tier != TierAnalytic {
			t.Fatalf("layer %s: tier %v, want analytic", a[i].Layer.Name, a[i].Tier)
		}
		if !(a[i].M.Seconds > 0) {
			t.Fatalf("layer %s: non-positive estimate %v", a[i].Layer.Name, a[i].M.Seconds)
		}
		if a[i].Kind == Winograd && (a[i].Layer.Shape.Hker != 3 || !a[i].Layer.Shape.WinogradOK()) {
			t.Fatalf("layer %s: Winograd verdict on an inadmissible shape", a[i].Layer.Name)
		}
		if a[i].Config != b[i].Config || a[i].Kind != b[i].Kind || a[i].M != b[i].M {
			t.Fatalf("layer %s: independent DSEs disagree: %+v vs %+v",
				a[i].Layer.Name, a[i], b[i])
		}
	}
	if !(NetworkSeconds(a) > 0) {
		t.Fatal("non-positive analytic network time")
	}
}

// errDead is the dead-backend error used by the fallback tests.
var errDead = errors.New("backend dead")

// deadMeasurer fails every measurement — the seam state behind an open
// breaker or an unplugged device.
func deadMeasurer(Kind, shapes.ConvShape, Measurer) FallibleMeasurer {
	return func(conv.Config) (Measurement, bool, error) {
		return Measurement{}, false, errDead
	}
}

// NetworkOptions.Analytic is the sweep-level degradation trigger: with a
// dead measurer the plain sweep fails, the sweep holding a tier returns a
// complete all-analytic verdict list instead.
func TestTuneNetworkAnalyticFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	layers := randomNetwork(rng)
	opts := DefaultOptions()
	opts.Budget = 8
	opts.Retry.MaxAttempts = 2

	base := NetworkOptions{Tune: opts, Winograd: true, WrapMeasurer: deadMeasurer}
	if _, err := TuneNetwork(arch, layers, NewCache(), base); err == nil {
		t.Fatal("dead measurer without an analytic tier must fail the sweep")
	}

	withFallback := base
	withFallback.Analytic = NewAnalyticDSE(arch)
	verdicts, err := TuneNetwork(arch, layers, NewCache(), withFallback)
	if err != nil {
		t.Fatalf("fallback sweep failed: %v", err)
	}
	if len(verdicts) != len(layers) {
		t.Fatalf("%d verdicts for %d layers", len(verdicts), len(layers))
	}
	for _, v := range verdicts {
		if v.Tier != TierAnalytic {
			t.Fatalf("layer %s: tier %v, want analytic", v.Layer.Name, v.Tier)
		}
		if !(v.M.Seconds > 0) {
			t.Fatalf("layer %s: non-positive estimate", v.Layer.Name)
		}
	}

	// With a healthy measurer the fallback option must be inert: verdicts
	// identical to the plain sweep, every tier measured.
	healthy := NetworkOptions{Tune: opts, Winograd: true}
	want, err := TuneNetwork(arch, layers, NewCache(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	healthy.Analytic = NewAnalyticDSE(arch)
	got, err := TuneNetwork(arch, layers, NewCache(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Config != want[i].Config || got[i].Kind != want[i].Kind {
			t.Fatalf("layer %s: fallback option changed a healthy verdict", want[i].Layer.Name)
		}
		if got[i].Tier != TierMeasured {
			t.Fatalf("layer %s: healthy sweep tier %v, want measured", got[i].Layer.Name, got[i].Tier)
		}
	}
}

// The sweep's degradation path reads the tier it was handed, not the
// sweep's own throwaway spaces: two dead-backend sweeps sharing one tier
// scan each (kind, shape) space once between them, and what they answer is
// what the tier's NetworkKinds answers for the same layers and kinds — one
// per-layer chooser behind both.
func TestSweepFallbackSharesTierMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	layers := randomNetwork(rng)
	tune := DefaultOptions()
	tune.Budget = 8
	tier := NewAnalyticDSE(arch)
	opts := NetworkOptions{Tune: tune, Winograd: true, WrapMeasurer: deadMeasurer, Analytic: tier}

	sweep := func() []LayerVerdict {
		t.Helper()
		plan := planSweep(arch, layers, opts)
		if err := plan.run(context.Background(), NewCache(), opts); err != nil {
			t.Fatal(err)
		}
		verdicts, err := plan.chooseKinds(opts)
		if err != nil {
			t.Fatalf("dead-backend sweep with a tier failed: %v", err)
		}
		for _, task := range plan.tasks {
			if task.sp.scanned() {
				t.Fatalf("%s %v: the sweep scanned its own space", task.Kind, task.Shape)
			}
		}
		if got, want := tier.scannedSpaces(), len(plan.tasks); got != want {
			t.Fatalf("tier holds %d scanned spaces for %d searches", got, want)
		}
		return verdicts
	}
	first := sweep()
	memo := make(map[dseKey]*Space)
	for k, sp := range tier.spaces {
		memo[k] = sp
	}
	second := sweep()
	for k, sp := range tier.spaces {
		if memo[k] != sp {
			t.Fatalf("%s %v: the second sweep rebuilt the tier's space", k.kind, k.s)
		}
	}

	want, err := tier.NetworkKinds(layers, []Kind{Winograd})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if first[i] != want[i] || second[i] != want[i] {
			t.Fatalf("layer %s: sweep fallback %+v / %+v, NetworkKinds %+v",
				want[i].Layer.Name, first[i], second[i], want[i])
		}
	}

	// A tier built for another architecture is not this sweep's tier.
	opts.Analytic = NewAnalyticDSE(memsim.TitanX)
	if _, err := TuneNetwork(arch, layers, NewCache(), opts); err == nil {
		t.Fatal("a foreign-arch tier answered a dead layer; want the sweep to fail as with none")
	}
}

// layerAnswers is NetworkKinds answered one space at a time: each layer's
// best Layer answer over its candidate kinds, from a fresh tier.
func layerAnswers(t *testing.T, layers []NetworkLayer, kinds []Kind) []LayerVerdict {
	t.Helper()
	ref := NewAnalyticDSE(arch)
	want := make([]LayerVerdict, len(layers))
	for i, l := range layers {
		want[i] = LayerVerdict{Layer: l, Tier: TierAnalytic}
		for _, k := range CandidateKinds(l.Shape, false, kinds) {
			av, err := ref.Layer(k, l.Shape)
			if err != nil {
				continue
			}
			if want[i].M.Seconds == 0 || av.Seconds < want[i].M.Seconds {
				want[i].Kind, want[i].Config = k, av.Config
				want[i].M = Measurement{Seconds: av.Seconds, GFLOPS: av.GFLOPS}
			}
		}
		if want[i].M.Seconds == 0 {
			t.Fatalf("layer %s: no kind ranks", l.Name)
		}
	}
	return want
}

// A network's first analytic answer fans its spaces' scans across cores.
// A scan is a pure function of its space, so the answer is the per-layer one
// bit for bit at any GOMAXPROCS, and eight requests racing on one tier with
// overlapping shapes each get it too.
func TestNetworkKindsFanIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	kinds := Kinds[1:]
	nets := make([][]NetworkLayer, 4)
	for i := range nets {
		nets[i] = randomNetwork(rng) // stages of one to two layers: repeated shapes
	}
	fans := CountScanFans(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, layers := range nets {
			got, err := NewAnalyticDSE(arch).NetworkKinds(layers, kinds)
			if err != nil {
				t.Fatal(err)
			}
			for j, want := range layerAnswers(t, layers, kinds) {
				if got[j] != want {
					t.Fatalf("GOMAXPROCS %d, network %d, layer %s: fanned %+v, per-layer %+v", procs, i, want.Layer.Name, got[j], want)
				}
			}
		}
	}
	if fans() == 0 {
		t.Fatal("no first answer fanned its scans")
	}

	// Each request is two of the networks, so neighbours share shapes.
	runtime.GOMAXPROCS(8)
	shared := NewAnalyticDSE(arch)
	reqs := make([][]NetworkLayer, 8)
	got := make([][]LayerVerdict, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for g := range reqs {
		reqs[g] = append(append([]NetworkLayer(nil), nets[g%4]...), nets[(g+1)%4]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = shared.NetworkKinds(reqs[g], kinds)
		}()
	}
	wg.Wait()
	for g, layers := range reqs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for j, want := range layerAnswers(t, layers, kinds) {
			if got[g][j] != want {
				t.Fatalf("request %d, layer %s: shared tier %+v, per-layer %+v", g, want.Layer.Name, got[g][j], want)
			}
		}
	}
}

// A dead-backend sweep hands all its unmeasured layers to the tier at once,
// so their unscanned spaces are scanned in one fan, as NetworkKinds scans
// them, and the answers are the per-layer ones.
func TestSweepFallbackFansScans(t *testing.T) {
	layers := randomNetwork(rand.New(rand.NewSource(79)))
	tune := DefaultOptions()
	tune.Budget = 8
	opts := NetworkOptions{Tune: tune, Winograd: true, WrapMeasurer: deadMeasurer, Analytic: NewAnalyticDSE(arch)}
	fans := CountScanFans(t)
	got, err := TuneNetwork(arch, layers, NewCache(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fans() != 1 {
		t.Fatalf("dead-backend sweep fanned %d times, want 1", fans())
	}
	for i, want := range layerAnswers(t, layers, []Kind{Winograd}) {
		if got[i] != want {
			t.Fatalf("layer %s: fallback %+v, per-layer %+v", want.Layer.Name, got[i], want)
		}
	}
}

// An entry with a dimension past ratioMaxDim is left out of the calibration,
// as floorRatio leaves it unrated: the factor equals the same cache's without
// it, and the tier builds no space for it.
func TestCalibrationSkipsOversizedEntries(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 4, Hin: 10, Win: 10, Cout: 6, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(s, arch, Direct, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Budget = 24
	tr, err := Tune(sp, KindMeasurer(arch, s, Direct), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	cache.PutTrace(arch.Name, Direct, s, tr)
	want := CalibrateAnalytic(cache, arch)

	// The wide entry's rows, 1000× slower, would move the median.
	wide, _ := cache.Entry(arch.Name, Direct, s)
	wide.Shape.Cout = ratioMaxDim + 1
	wide.Seconds *= 1000
	wide.Rows = slices.Clone(wide.Rows)
	for i := range wide.Rows {
		wide.Rows[i].Seconds *= 1000
	}
	if err := cache.PutEntries([]CacheEntry{wide}); err != nil {
		t.Fatal(err)
	}
	tier := NewAnalyticDSE(arch)
	if got := tier.Calibrate(cache); got != want || len(tier.spaces) != 1 {
		t.Errorf("with an entry of Cout %d: calibration %v over %d spaces, want %v over 1", wide.Shape.Cout, got, len(tier.spaces), want)
	}
}
