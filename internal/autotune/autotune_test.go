package autotune

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/conv"
	"repro/internal/memsim"
	"repro/internal/shapes"
)

var arch = memsim.V100

func layer() shapes.ConvShape {
	return shapes.ConvShape{Batch: 1, Cin: 96, Hin: 27, Win: 27, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
}

func mustSpace(t *testing.T, pruned bool) *Space {
	t.Helper()
	sp, err := NewSpace(layer(), arch, Direct, 0, pruned)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpaceSizePrunedSmaller(t *testing.T) {
	full := mustSpace(t, false)
	pruned := mustSpace(t, true)
	fs, ps := full.Size(), pruned.Size()
	if fs <= 0 || ps <= 0 {
		t.Fatalf("empty spaces: full=%d pruned=%d", fs, ps)
	}
	if ps >= fs {
		t.Errorf("pruned space %d not smaller than full %d", ps, fs)
	}
	ratio := float64(ps) / float64(fs)
	// The paper reports 20-55%; allow a wide but meaningful range.
	if ratio < 0.01 || ratio > 0.9 {
		t.Errorf("pruning ratio %v outside plausible range", ratio)
	}
}

func TestSampleAdmissible(t *testing.T) {
	for _, pruned := range []bool{false, true} {
		sp := mustSpace(t, pruned)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			c := sp.Sample(rng)
			if !sp.admissible(c) {
				t.Fatalf("pruned=%v: sampled inadmissible config %v", pruned, c)
			}
		}
	}
}

func TestNeighborStaysAdmissible(t *testing.T) {
	sp := mustSpace(t, true)
	rng := rand.New(rand.NewSource(2))
	c := sp.Sample(rng)
	for i := 0; i < 500; i++ {
		c = sp.Neighbor(c, rng)
		if !sp.admissible(c) {
			t.Fatalf("step %d: neighbor left the space: %v", i, c)
		}
	}
}

func TestNeighborMoves(t *testing.T) {
	sp := mustSpace(t, false)
	rng := rand.New(rand.NewSource(3))
	c := sp.Sample(rng)
	moved := 0
	for i := 0; i < 50; i++ {
		n := sp.Neighbor(c, rng)
		if n != c {
			moved++
		}
		c = n
	}
	if moved < 25 {
		t.Errorf("neighbor only moved %d/50 times", moved)
	}
}

func TestWinogradSpace(t *testing.T) {
	s := shapes.ConvShape{Batch: 1, Cin: 64, Hin: 28, Win: 28, Cout: 64, Hker: 3, Wker: 3, Strid: 1, Pad: 1}
	sp, err := NewSpace(s, arch, Winograd, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sawE := map[int]bool{}
	for i := 0; i < 200; i++ {
		c := sp.Sample(rng)
		if c.WinogradE != 2 && c.WinogradE != 4 {
			t.Fatalf("winograd sample has e=%d, want 2 or 4: %v", c.WinogradE, c)
		}
		if c.TileX%c.WinogradE != 0 || c.TileY%c.WinogradE != 0 {
			t.Fatalf("winograd sample tile not divisible by e: %v", c)
		}
		sawE[c.WinogradE] = true
	}
	if !sawE[2] || !sawE[4] {
		t.Errorf("sampling never chose both tile edges: %v", sawE)
	}
	// Stride-2 shapes must be rejected.
	bad := s
	bad.Strid = 2
	if _, err := NewSpace(bad, arch, Winograd, 2, true); err == nil {
		t.Error("stride-2 winograd space accepted")
	}
}

func TestGBTLearnsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		x = append(x, []float64{a, b})
		y = append(y, a*a+0.5*b)
	}
	m := TrainGBT(DefaultGBTConfig(), x, y)
	if rmse := m.RMSE(x, y); rmse > 0.25 {
		t.Errorf("training RMSE %v too high", rmse)
	}
	// Held-out points.
	var xt [][]float64
	var yt []float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		xt = append(xt, []float64{a, b})
		yt = append(yt, a*a+0.5*b)
	}
	if rmse := m.RMSE(xt, yt); rmse > 0.6 {
		t.Errorf("held-out RMSE %v too high", rmse)
	}
}

func TestGBTConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	m := TrainGBT(DefaultGBTConfig(), x, y)
	if p := m.Predict([]float64{2.5}); math.Abs(p-7) > 1e-9 {
		t.Errorf("constant fit predicts %v", p)
	}
}

func TestGBTPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty training set")
		}
	}()
	TrainGBT(DefaultGBTConfig(), nil, nil)
}

func smallOpts(budget int, seed int64) Options {
	return Options{Budget: budget, BatchSize: 4, Walkers: 4, WalkSteps: 12, Patience: 0, Seed: seed}
}

func TestTuneFindsGoodConfig(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	tr, err := Tune(sp, measure, smallOpts(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	if layer().GFLOPS(tr.BestM.Seconds) <= 0 {
		t.Fatal("no positive-GFLOPS config found")
	}
	curve := rateCurve(layer(), tr)
	if len(curve) != tr.Measurements {
		t.Errorf("curve length %d != measurements %d", len(curve), tr.Measurements)
	}
	// Curve must be nondecreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("best-so-far curve decreased at %d", i)
		}
	}
	// Same-budget comparison, averaged over seeds: the model-guided engine
	// must not lose to blind random search. (The enumerated optimum of this
	// space is ~912 GFLOPS; both should sit close beneath it.)
	var tuned, random float64
	const seeds = 3
	for seed := int64(20); seed < 20+seeds; seed++ {
		tt, err := Tune(sp, measure, smallOpts(60, seed))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := RandomSearch(sp, measure, smallOpts(60, seed))
		if err != nil {
			t.Fatal(err)
		}
		tuned += layer().GFLOPS(tt.BestM.Seconds)
		random += layer().GFLOPS(rr.BestM.Seconds)
	}
	if tuned < random*0.98 {
		t.Errorf("tuned avg %v GFLOPS well below random avg %v", tuned/seeds, random/seeds)
	}
}

func TestAllStrategiesRun(t *testing.T) {
	sp := mustSpace(t, false)
	measure := KindMeasurer(arch, layer(), Direct)
	for name, run := range map[string]func(*Space, Measurer, Options) (*Trace, error){
		"random": RandomSearch,
		"sa":     SimulatedAnnealing,
		"ga":     GeneticAlgorithm,
	} {
		tr, err := run(sp, measure, smallOpts(40, 3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if layer().GFLOPS(tr.BestM.Seconds) <= 0 || tr.Measurements == 0 {
			t.Errorf("%s: degenerate trace %+v", name, tr)
		}
		curve := rateCurve(layer(), tr)
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%s: curve decreased at %d", name, i)
			}
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	a, err := Tune(sp, measure, smallOpts(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(sp, measure, smallOpts(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.BestM != b.BestM {
		t.Errorf("same seed, different results: %v vs %v", a.Best, b.Best)
	}
}

// MinDelta semantics: a sub-threshold improvement still updates the best
// but does not reset patience; a significant one resets it. MinDelta 0 is
// the strict behavior.
func TestMinDeltaPatience(t *testing.T) {
	cfg := func(x int) conv.Config { return conv.Config{TileX: x} }
	m := func(s float64) Measurement { return Measurement{Seconds: s} }

	strict := &record{}
	strict.add(cfg(1), m(1.0), true)
	strict.add(cfg(2), m(0.999), true) // 0.1% improvement
	if strict.stale(1) {
		t.Error("strict record stale immediately after an improvement")
	}

	md := &record{minDelta: 0.01}
	md.add(cfg(1), m(1.0), true)
	md.add(cfg(2), m(0.999), true)
	if md.trace.Best != cfg(2) || md.trace.BestM != m(0.999) {
		t.Error("sub-delta improvement must still update the best")
	}
	if !md.stale(1) {
		t.Error("sub-delta improvement reset patience despite minDelta")
	}
	md.add(cfg(3), m(0.9), true) // 10% improvement
	if md.stale(1) {
		t.Error("significant improvement did not reset patience")
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	sp := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	opts := smallOpts(500, 8)
	opts.Patience = 20
	tr, err := Tune(sp, measure, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Measurements >= 500 {
		t.Errorf("patience did not stop the run: %d measurements", tr.Measurements)
	}
}

// The paper's claim behind Table 2: tuning on the pruned domain reaches
// near-best performance in no more measurements than the full domain, at
// equal or better quality.
func TestPrunedConvergesFaster(t *testing.T) {
	full := mustSpace(t, false)
	pruned := mustSpace(t, true)
	measure := KindMeasurer(arch, layer(), Direct)
	// Average over seeds to avoid flakiness; "converged" = first measurement
	// reaching 95% of the lower of the two final bests.
	var fullAt, prunedAt, fullBest, prunedBest float64
	const seeds = 3
	for seed := int64(0); seed < seeds; seed++ {
		f, err := Tune(full, measure, smallOpts(80, 10+seed))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Tune(pruned, measure, smallOpts(80, 10+seed))
		if err != nil {
			t.Fatal(err)
		}
		fg, pg := layer().GFLOPS(f.BestM.Seconds), layer().GFLOPS(p.BestM.Seconds)
		target := 0.95 * math.Min(fg, pg)
		fullAt += float64(firstReaching(rateCurve(layer(), f), target))
		prunedAt += float64(firstReaching(rateCurve(layer(), p), target))
		fullBest += fg
		prunedBest += pg
	}
	if prunedBest < fullBest*0.95 {
		t.Errorf("pruned quality %v well below full %v", prunedBest/seeds, fullBest/seeds)
	}
	if prunedAt > fullAt*1.5+seeds {
		t.Errorf("pruned reached target slower (%v) than full (%v)", prunedAt/seeds, fullAt/seeds)
	}
}

// rateCurve is tr's best-so-far series read as the layer's useful rate, as
// Figure 11 prints it.
func rateCurve(s shapes.ConvShape, tr *Trace) []float64 {
	curve := BestSoFar(tr.History)
	for i, sec := range curve {
		curve[i] = s.GFLOPS(sec)
	}
	return curve
}

func firstReaching(curve []float64, target float64) int {
	for i, v := range curve {
		if v >= target {
			return i + 1
		}
	}
	return len(curve)
}

// Property: Features always returns NumFeatures finite values for admissible
// samples.
func TestFeaturesWellFormed(t *testing.T) {
	sp := mustSpace(t, false)
	rng := rand.New(rand.NewSource(11))
	f := func(seed uint8) bool {
		_ = seed
		c := sp.Sample(rng)
		fv := sp.Features(c)
		if len(fv) != NumFeatures {
			return false
		}
		for _, v := range fv {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Direct.String() != "direct" || Winograd.String() != "winograd" {
		t.Error("kind names wrong")
	}
}

func TestCrossoverAdmissible(t *testing.T) {
	sp := mustSpace(t, true)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		a, b := sp.Sample(rng), sp.Sample(rng)
		c := crossover(sp, a, b, rng)
		if !sp.admissible(c) {
			t.Fatalf("crossover produced inadmissible config %v", c)
		}
	}
}

var _ = conv.Config{} // keep the conv import obviously intentional
